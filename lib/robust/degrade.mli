(** Graceful degradation: never slower than a safe baseline, never a
    crash.

    {!guard} wraps a run-time reconfiguration policy
    ({!Mcd_cpu.Controller.t}) in a safety envelope:

    - every setting the policy emits is validated against the legal
      {!Mcd_domains.Freq} grid; off-grid targets are clamped with a
      logged diagnostic, settings corrupt beyond repair (wrong arity,
      out-of-range frequency) are suppressed entirely;
    - if the policy itself raises, the exception is swallowed, the
      machine is sent to the all-domains-full-speed baseline, and the
      policy is disabled for the rest of the run (global fallback);
    - a watchdog runs on the periodic hardware sample: when the
      programmed DVFS targets stop matching what the guard commanded
      (a lost or ignored reconfiguration-register write), the write is
      re-issued up to a bounded number of times before falling back;
      when a domain's operating point stops converging toward its
      target (a slew that never completes), the guard falls back
      immediately.

    After a global fallback the machine runs the MCD baseline — all
    domains at full speed — so a faulty plan or controller costs energy
    savings, never correctness and never unbounded slowdown. Every
    intervention is counted in {!counters}, mirroring
    {!Mcd_core.Editor.counters} for the fault-free path. *)

type counters = {
  mutable clamped : int;
      (** illegal frequency targets snapped to the legal grid *)
  mutable suppressed : int;
      (** settings too corrupt to repair, dropped before the register *)
  mutable reissues : int;
      (** reconfiguration writes repeated after the hardware ignored
          them *)
  mutable controller_faults : int;
      (** exceptions raised by the wrapped policy and swallowed *)
  mutable fallbacks : int;  (** global falls to the full-speed baseline *)
}

val counters : unit -> counters
(** All zero. *)

val fallen_back : counters -> bool
(** True once a global fallback has happened. *)

val interventions : counters -> int
(** Total degradation events of any kind. *)

val pp_counters : Format.formatter -> counters -> unit

val default_watchdog_interval_cycles : int
(** 8192 front-end cycles between watchdog samples when the wrapped
    policy does not sample on its own. *)

val default_max_reissues : int
(** 3: lost writes are retried this many consecutive samples before the
    guard concludes the hardware is deaf and falls back. *)

val stall_streak_limit : int
(** 4: consecutive watchdog samples over which a target gap must fail to
    shrink before a slew is declared frozen. *)

val guard :
  ?log:(Error.t -> unit) ->
  ?sink:Mcd_obs.Sink.t ->
  counters:counters ->
  Mcd_cpu.Controller.t ->
  Mcd_cpu.Controller.t
(** Wrap a policy in the safety envelope. [log] (default: drop)
    receives a diagnostic for every intervention; [sink] additionally
    records each intervention (clamp, suppression, reissue, fallback)
    as a [Degraded] trace event. The returned controller is
    single-use, like the one it wraps. *)
