(** Fixed-interval primitive-event collection.

    The paper's off-line comparison point (its reference [30]) chooses
    voltages and frequencies at fixed instruction intervals with perfect
    future knowledge, regardless of program structure. This collector
    supports that analysis: it files the probe's events into consecutive
    buckets of [interval_insts] dynamic instructions each, ignoring
    markers entirely.

    A bucket is handed to the consumer as soon as it is complete and its
    events are dropped, so a run holds about one bucket at a time. The
    bucket of instructions [\[lo, hi)] is complete once instruction
    [hi - 1] retires: retirement is in order and retire is each
    instruction's last event. Each handed-off array is in (seq,
    {!Mcd_cpu.Probe.stage_rank}) order. *)

type t

val create :
  ?interval_insts:int ->
  ?max_events_per_interval:int ->
  ?on_interval:(Mcd_cpu.Probe.event array -> unit) ->
  unit ->
  t
(** Defaults: 10_000 instructions per interval, 80_000 events cap.
    [on_interval] receives the buckets in stream order; without it, the
    collector retains them for {!intervals}. *)

val probe : t -> Mcd_cpu.Probe.t
(** Raises [Invalid_argument] on an event of a bucket already handed
    off. *)

val finish : t -> unit
(** Hand off every bucket the run left buffered: those whose last
    instruction did not retire, such as the trailing partial bucket.
    Call it once the run is over; idempotent. *)

val intervals : t -> Mcd_cpu.Probe.event array list
(** {!finish}, then the buckets the default consumer retained, in stream
    order (none when [on_interval] was given). *)
