(** Per-domain dynamic voltage and frequency scaling state.

    Modelled on the Intel XScale behaviour assumed by the paper: a
    reconfiguration write incurs no idle time — the domain keeps
    executing through the change — but frequency slews toward the target
    at 73.3 ns per MHz, so traversing the full 750 MHz range takes 55 us.
    Voltage tracks the instantaneous frequency.

    The module also hosts the hardware half of the fault-injection
    story ({!fault}): a domain can be pinned at a frequency (ignoring
    all subsequent writes) or have its ramp frozen mid-slew, modelling
    a broken voltage regulator. Faults are injected by the robustness
    harness through {!Mcd_cpu.Pipeline.run}'s [dvfs_faults] argument. *)

type t

val create : unit -> t
(** All domains at full speed (1 GHz, 1.2 V). *)

val slew_ns_per_mhz : float
(** 73.3 ns/MHz. *)

type fault =
  | Stuck_at of Domain.t * int
      (** the domain is forced to the given frequency (snapped to a
          legal step) and every later {!set_target} is ignored *)
  | Frozen_slew of Domain.t
      (** {!set_target} still updates the target, but the operating
          point never moves toward it — the slew never completes *)

val inject : t -> fault -> unit
(** Apply a hardware fault. Irreversible for the life of the value. *)

val set_target :
  ?on_snap:(requested:int -> snapped:int -> unit) ->
  ?sink:Mcd_obs.Sink.t ->
  t ->
  Domain.t ->
  now:Mcd_util.Time.t ->
  mhz:int ->
  unit
(** Begin slewing the domain toward [mhz].

    When a [sink] is supplied, a [Dvfs_retarget] event is recorded
    whenever the write actually moves the (snapped) target — no-op
    retargets and writes to a stuck domain stay silent.

    Off-grid requests are {e silently snapped} to the nearest legal
    step of the {!Freq} grid ([Freq.clamp]): the register behaves like
    real hardware, which implements only the legal operating points.
    Callers that need to surface the discrepancy — validation and the
    robustness watchdog — pass [on_snap], which is invoked with the
    requested and substituted values whenever snapping changed the
    request. A domain with an injected {!Stuck_at} fault ignores the
    write entirely (the [on_snap] diagnostic still fires). *)

val force : t -> Domain.t -> mhz:int -> unit
(** Set the domain's operating point instantaneously (no slew). Used to
    initialise alternative machine configurations — e.g. a globally
    synchronous core at a lower frequency — not to model transitions. *)

val target_mhz : t -> Domain.t -> int

val current_mhz : t -> Domain.t -> now:Mcd_util.Time.t -> float
(** Instantaneous frequency, advancing the internal ramp to [now].
    Queries at times before the previous observation answer with the
    current operating point (the ramp is never rewound). *)

val settled_step : t -> Domain.t -> now:Mcd_util.Time.t -> int
(** [settled_step t d ~now] is the {!Freq} step index the domain rests
    on when its ramp has reached its target, or [-1] while it slews.
    A step answer observes [now] exactly as {!current_mhz} would, so the
    caller may read per-step tables built with the slow path's
    expressions. A [-1] answer observes nothing: the caller falls back
    to {!current_mhz}. Either way the run is unchanged bit for bit. *)

val peek_mhz : t -> Domain.t -> now:Mcd_util.Time.t -> float
(** The frequency {!current_mhz} would answer at [now], without
    advancing the ramp. Each advance is a step of the slew's float
    integration, so an observer that must not perturb the run (the
    observability sampler) reads through this. *)

val voltage : t -> Domain.t -> now:Mcd_util.Time.t -> float

val energy_scale : t -> Domain.t -> now:Mcd_util.Time.t -> float
(** [(v/vmax)^2] at the instantaneous operating point. *)

val in_transition : t -> Domain.t -> now:Mcd_util.Time.t -> bool
