(** Dependence DAG over primitive events (input to the shaker).

    Built from one recorded segment of a long-running node. Vertices are
    primitive events; edges are the dependences observed by the
    simulator:

    - the intra-instruction pipeline chain
      (fetch -> dispatch -> execute/mem -> retire);
    - data dependences (producer execute/mem -> consumer execute/mem);
    - control dependences (mispredicted branch -> first fetch after the
      recovery);
    - fetch serialization (fetch i -> fetch i+1), in-order retirement
      (retire i -> retire i+1), and reorder-buffer occupancy pressure
      (retire i -> fetch i + rob_size).

    Without the structural edges the shaker would see phantom slack —
    fetch gaps caused by back-pressure look like idle time that could
    absorb frequency reduction, when in fact they shift one-for-one with
    the events that caused them.

    Event times come from the full-speed profiling run, so edge slack —
    the gap between a producer's end and a consumer's start — reflects
    real scheduling slack in the machine. *)

type t = {
  start : float array;  (** ps per event id, from the profiling run *)
  dur : float array;  (** ps at full frequency, >= 1 *)
  domain : int array;  (** {!Mcd_domains.Domain.index} of each event *)
  succ_off : int array;
      (** CSR offsets: the successors of [id] are
          [succ.(succ_off.(id)) .. succ.(succ_off.(id + 1) - 1)] *)
  succ : int array;
  pred_off : int array;  (** CSR offsets into [pred], as [succ_off] *)
  pred : int array;
  order : int array;
      (** event ids sorted by (start, id): the processing order of the
          shaker and of the path DP *)
  t_min : float;  (** earliest event start (segment source bound) *)
  t_max : float;  (** latest event end (segment sink bound) *)
}
(** Struct of arrays indexed by event id. Ids follow the input's (seq,
    stage) order; each adjacency list keeps the order its edges were
    added in. *)

val build : ?rob_size:int -> Mcd_cpu.Probe.event array -> t
(** The input must be sorted by (seq, stage) as produced by
    {!Mcd_trace.Collector.segments}. Dependences on instructions outside
    the segment are dropped. [rob_size] defaults to the Table-1 value
    (80). Raises [Invalid_argument] when two events share a seq and
    {!Mcd_cpu.Probe.stage_rank}. *)

val size : t -> int
val edge_count : t -> int

val slack : t -> int -> float
(** Outgoing slack of an event: minimum over successors of
    [succ.start - (ev.start + ev.duration)], or distance to [t_max] for
    sinks. Non-negative by construction of the schedule (clamped at 0
    against rounding). *)

val validate : t -> unit
(** Check DAG invariants (positive durations, as many predecessor as
    successor entries, edges point forward in time up to a small
    tolerance). Raises [Invalid_argument] on violation; used by
    tests. *)

val longest_path_signature : t -> slow:(Mcd_domains.Domain.t -> float) -> float array
(** Composition of the longest path when every event in domain [d] is
    stretched by [slow d] (>= 1): entry [Mcd_domains.Domain.index d] is
    the total {e unstretched} duration of path events in domain [d].
    Used to build the compact path model that validates a candidate
    setting's slowdown (the paper's "delay calculation"). *)

val path_signatures : t -> Path_model.segment
(** Signatures of the binding paths under the standard probe set — full
    speed, all domains slowed 4x, then each domain slowed 4x alone — in
    that order, computed by one DP walk that carries every probe, and
    packaged with the full-speed critical-path length (the sum of the
    first signature). Each signature is bit-equal to
    {!longest_path_signature} under its probe. *)
