(** Interface between the pipeline and a run-time reconfiguration policy.

    The pipeline delivers two kinds of hooks. Phase markers (function and
    loop boundaries, exactly where edited binaries carry instrumentation)
    reach [on_marker]; the policy's reaction says what the inserted code
    would have cost (front-end stall cycles and table lookups, per the
    paper's fixed-penalty emulation) and whether the reconfiguration
    register is written. Periodic hardware samples reach [on_sample];
    the on-line attack/decay controller lives there. *)

type sample = {
  elapsed_cycles : int;  (** front-end cycles since the previous sample *)
  avg_occupancy : float array;
      (** mean domain-owned queue backlog per
          {!Mcd_domains.Domain.index} (entries ready to issue or waiting
          on a same-domain producer); front-end entry is the
          fetch-buffer occupancy *)
  retired : int;  (** instructions retired during the interval *)
  total_retired : int;  (** instructions retired since the run began *)
  l1d_misses : int;
      (** L1 D-cache misses during the interval — the memory-boundedness
          signal cache-aware policies react to *)
  l2_misses : int;
      (** unified-L2 misses during the interval (each one is a trip to
          external memory) *)
  target_mhz : int array;
      (** programmed DVFS target per {!Mcd_domains.Domain.index} — what
          the hardware {e admits} it was asked for, which a watchdog can
          compare against what the policy {e believes} it asked for
          (a lost or ignored reconfiguration write shows up here) *)
  current_mhz : float array;
      (** instantaneous operating point per domain; together with
          [target_mhz] this exposes slews that never complete *)
}

type reaction = {
  stall_cycles : int;
      (** front-end cycles charged for the inserted instrumentation *)
  table_reads : int;
      (** label/frequency table lookups, charged as L2 accesses *)
  set : Mcd_domains.Reconfig.setting option;
      (** write the reconfiguration register *)
}

val no_reaction : reaction

val charged : reaction -> bool
(** The pipeline charges a reaction (stall, inserted instructions'
    energy, table lookups) exactly when it stalls or reads a table. *)

type t = {
  name : string;
  on_marker : Mcd_isa.Walker.marker -> now:Mcd_util.Time.t -> reaction;
  on_sample :
    sample -> now:Mcd_util.Time.t -> Mcd_domains.Reconfig.setting option;
  sample_interval_cycles : int;
      (** front-end cycles between [on_sample] calls; 0 disables
          sampling *)
}

val nop : t
(** The MCD baseline: never reacts, never samples. *)
