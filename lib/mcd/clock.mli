(** A domain clock: a stream of edges whose spacing follows the domain's
    instantaneous DVFS frequency, perturbed by normally distributed
    jitter.

    The simulator's main loop advances to the earliest pending edge among
    domain clocks and runs that domain's work. Edge times are strictly
    increasing. *)

type t

val create :
  ?jitter_sigma_ps:float ->
  rng:Mcd_util.Rng.t ->
  dvfs:Dvfs.t ->
  domain:Domain.t ->
  unit ->
  t
(** A clock at [domain]'s instantaneous {!Dvfs} frequency. Jitter
    defaults to the paper's 110 ps bound, modelled as a normal with
    sigma = 110/3 ps clamped to the bound. *)

val next_edge : t -> Mcd_util.Time.t
(** Time of the next pending edge. *)

val advance : t -> unit
(** Consume the pending edge and schedule the following one at the
    current frequency plus jitter. *)

val cycles : t -> int
(** Number of edges consumed so far. *)

val period_ps : t -> now:Mcd_util.Time.t -> int
(** Nominal period at the instantaneous frequency. While the domain's
    ramp is settled it is read from a per-step table
    ({!Dvfs.settled_step}). *)

val project_edge : t -> at_or_after:Mcd_util.Time.t -> Mcd_util.Time.t
(** First edge at or after the given time, projected with the current
    period and no jitter (used by the synchronization model and by
    cross-domain latency estimates). Times in the past are projected on
    the backward extension of the current edge grid. *)
