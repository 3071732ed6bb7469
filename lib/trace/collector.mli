(** Primitive-event collection for the off-line analysis (phase 2).

    The collector is attached to a full-speed profiling run of the
    pipeline as a {!Mcd_cpu.Probe.t}. Markers drive a {!Mcd_profiling.Tracker}
    over the training call tree; the dynamic instruction stream is
    thereby partitioned into intervals, each attributed to the innermost
    long-running node active at that point (or to no node). Events are
    filed to the interval containing their instruction, so a node's
    recorded segments contain its own work but not the work of
    long-running descendants — which are scaled independently.

    To bound memory, only the first [max_segments_per_node] intervals of
    each node are recorded, and a segment stops growing at
    [max_events_per_segment] events; both caps echo the paper's
    combining of (a sample of) dynamic instances.

    A recorded segment is handed to the consumer as soon as it is
    complete and its events are dropped. The segment of instructions
    [\[lo, hi)] is complete once a marker has closed it and instruction
    [hi - 1] has retired: retirement is in order and retire is each
    instruction's last event. Each handed-off array is in (seq,
    {!Mcd_cpu.Probe.stage_rank}) order. *)

type t

val create :
  tree:Mcd_profiling.Call_tree.t ->
  ?max_segments_per_node:int ->
  ?max_events_per_segment:int ->
  ?on_segment:(int -> Mcd_cpu.Probe.event array -> unit) ->
  unit ->
  t
(** Defaults: 4 segments per node, 200_000 events per segment.
    [on_segment node_id events] receives every non-empty recorded
    segment in stream order; without it, the collector retains them for
    {!segments}. *)

val probe : t -> Mcd_cpu.Probe.t
(** Raises [Invalid_argument] on an event of an interval already handed
    off. *)

val finish : t -> unit
(** Hand off every segment the run left buffered: those not yet closed
    by a marker or not fully retired. Call it once the run is over;
    idempotent. *)

val segments : t -> (int * Mcd_cpu.Probe.event array list) list
(** {!finish}, then what the default consumer retained (nothing when
    [on_segment] was given): [(node_id, segments)] for every
    long-running node with at least one non-empty recorded segment,
    nodes in the order of their first such segment, each node's
    segments in stream order. *)

val intervals_seen : t -> int
(** Total attribution intervals opened (including discarded ones). *)
