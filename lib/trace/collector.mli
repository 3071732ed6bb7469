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
    combining of (a sample of) dynamic instances. *)

type t

val create :
  tree:Mcd_profiling.Call_tree.t ->
  ?max_segments_per_node:int ->
  ?max_events_per_segment:int ->
  unit ->
  t
(** Defaults: 4 segments per node, 200_000 events per segment. *)

val probe : t -> Mcd_cpu.Probe.t

val segments : t -> (int * Mcd_cpu.Probe.event array list) list
(** [(node_id, segments)] for every long-running node that was entered
    at least once, in tree order. Each segment's events are sorted by
    instruction sequence number and stage. *)

val sort_events : Mcd_cpu.Probe.event array -> Mcd_cpu.Probe.event array
(** Sort in place by (seq, {!Mcd_cpu.Probe.stage_rank}) and return the
    array: the order segments and intervals are handed out in. Execute
    and mem events of one instruction tie; the sort breaks the tie the
    same way on every run. *)

val intervals_seen : t -> int
(** Total attribution intervals opened (including discarded ones). *)
