(* Tests for the trace collector: attribution of primitive events to
   long-running nodes, segment caps, and ordering. *)

module B = Mcd_isa.Build
module P = Mcd_isa.Program
module Context = Mcd_profiling.Context
module Call_tree = Mcd_profiling.Call_tree
module Collector = Mcd_trace.Collector
module Pipeline = Mcd_cpu.Pipeline
module Config = Mcd_cpu.Config
module Probe = Mcd_cpu.Probe

let input = { P.input_name = "t"; scale = 1; divergence = 0.0; seed = 21 }

(* two long phases that alternate, and a long node nested in another *)
let phased_program () =
  B.program ~name:"phased" @@ fun b ->
  B.func b "phase_a"
    [ B.loop b (P.Const 40) [ B.straight b ~length:30 () ] ];
  B.func b "phase_b"
    [ B.loop b (P.Const 40) [ B.straight b ~length:30 ~frac_fp_alu:0.3 () ] ];
  B.func b "main"
    [
      B.loop b (P.Const 12) [ B.call b "phase_a"; B.call b "phase_b" ];
    ];
  "main"

let collect ?max_segments_per_node ?max_events_per_segment ~threshold program
    =
  let tree =
    Call_tree.build program ~input ~context:Context.lfcp ~threshold
      ~max_insts:100_000 ()
  in
  let col = Collector.create ~tree ?max_segments_per_node ?max_events_per_segment () in
  let _ =
    Pipeline.run
      ~probe:(Collector.probe col)
      ~config:Config.alpha21264_like ~program ~input ~max_insts:40_000 ()
  in
  (tree, col)

let test_segments_for_long_nodes () =
  let tree, col = collect ~threshold:800 (phased_program ()) in
  let segs = Collector.segments col in
  Alcotest.(check bool) "some segments" true (List.length segs > 0);
  List.iter
    (fun (node_id, _) ->
      Alcotest.(check bool) "segment nodes are long" true
        (Call_tree.node tree node_id).Call_tree.long)
    segs

let test_segment_events_sorted () =
  let _, col = collect ~threshold:800 (phased_program ()) in
  List.iter
    (fun (_, segments) ->
      List.iter
        (fun seg ->
          let prev = ref (-1) in
          Array.iter
            (fun (e : Probe.event) ->
              if e.Probe.seq < !prev then Alcotest.fail "segment not sorted";
              prev := e.Probe.seq)
            seg)
        segments)
    (Collector.segments col)

let test_segment_cap_respected () =
  let _, col =
    collect ~max_segments_per_node:2 ~threshold:800 (phased_program ())
  in
  List.iter
    (fun (_, segments) ->
      Alcotest.(check bool) "at most 2 segments" true
        (List.length segments <= 2))
    (Collector.segments col)

let test_event_cap_respected () =
  let _, col =
    collect ~max_events_per_segment:500 ~threshold:800 (phased_program ())
  in
  List.iter
    (fun (_, segments) ->
      List.iter
        (fun seg ->
          Alcotest.(check bool) "event cap" true (Array.length seg <= 500))
        segments)
    (Collector.segments col)

let test_no_long_nodes_no_segments () =
  let _, col = collect ~threshold:10_000_000 (phased_program ()) in
  Alcotest.(check int) "no segments" 0 (List.length (Collector.segments col))

let test_nested_attribution () =
  (* an inner long loop's events must not appear in the outer node's
     segments: seq ranges of different nodes are disjoint *)
  let tree, col = collect ~threshold:800 (phased_program ()) in
  ignore tree;
  let ranges = Hashtbl.create 8 in
  List.iter
    (fun (node_id, segments) ->
      List.iter
        (fun seg ->
          if Array.length seg > 0 then begin
            let lo = seg.(0).Probe.seq in
            let hi = seg.(Array.length seg - 1).Probe.seq in
            Hashtbl.add ranges node_id (lo, hi)
          end)
        segments)
    (Collector.segments col);
  (* ranges from different nodes never interleave: check pairwise *)
  let all = Hashtbl.fold (fun id r acc -> (id, r) :: acc) ranges [] in
  List.iter
    (fun (id1, (lo1, hi1)) ->
      List.iter
        (fun (id2, (lo2, hi2)) ->
          if id1 <> id2 && not (hi1 < lo2 || hi2 < lo1) then
            Alcotest.failf "segments of nodes %d and %d overlap" id1 id2)
        all)
    all

let test_intervals_seen () =
  let _, col = collect ~threshold:800 (phased_program ()) in
  Alcotest.(check bool) "intervals opened" true (Collector.intervals_seen col > 2)

(* --- Interval_collector ---------------------------------------------- *)

module Interval_collector = Mcd_trace.Interval_collector

let collect_intervals ~interval_insts program =
  let col = Interval_collector.create ~interval_insts () in
  let _ =
    Pipeline.run
      ~probe:(Interval_collector.probe col)
      ~config:Config.alpha21264_like ~program ~input ~max_insts:20_000 ()
  in
  Interval_collector.intervals col

let test_interval_bucketing () =
  let intervals = collect_intervals ~interval_insts:2_000 (phased_program ()) in
  Alcotest.(check bool) "about ten buckets" true
    (List.length intervals >= 9 && List.length intervals <= 12);
  (* every event sits in the bucket of its instruction *)
  List.iteri
    (fun i events ->
      Array.iter
        (fun (e : Probe.event) ->
          if e.Probe.seq / 2_000 <> i then
            Alcotest.fail "event filed in the wrong interval")
        events)
    intervals

let test_interval_events_sorted () =
  let intervals = collect_intervals ~interval_insts:2_000 (phased_program ()) in
  List.iter
    (fun events ->
      let prev = ref (-1) in
      Array.iter
        (fun (e : Probe.event) ->
          if e.Probe.seq < !prev then Alcotest.fail "interval not sorted";
          prev := e.Probe.seq)
        events)
    intervals

let test_interval_cap () =
  let col =
    Interval_collector.create ~interval_insts:2_000
      ~max_events_per_interval:100 ()
  in
  let _ =
    Pipeline.run
      ~probe:(Interval_collector.probe col)
      ~config:Config.alpha21264_like
      ~program:(phased_program ())
      ~input ~max_insts:10_000 ()
  in
  List.iter
    (fun events ->
      Alcotest.(check bool) "cap respected" true (Array.length events <= 100))
    (Interval_collector.intervals col)

(* --- hand-off ---------------------------------------------------------- *)

(* A bucket leaves as soon as its last instruction retires, so besides
   the filling bucket a run buffers only the events of instructions in
   flight: at most four events each, for at most a reorder buffer and a
   fetch queue of instructions. *)
let test_interval_buffering_bounded () =
  let interval_insts = 2_000 in
  let received = ref 0 and handed = ref 0 and high = ref 0 in
  let col =
    Interval_collector.create ~interval_insts
      ~on_interval:(fun events -> handed := !handed + Array.length events)
      ()
  in
  let inner = Interval_collector.probe col in
  let probe =
    {
      inner with
      Probe.on_event =
        (fun ev ->
          incr received;
          inner.Probe.on_event ev;
          high := max !high (!received - !handed));
    }
  in
  let _ =
    Pipeline.run ~probe ~config:Config.alpha21264_like
      ~program:(phased_program ()) ~input ~max_insts:20_000 ()
  in
  let handed_in_run = !handed in
  Interval_collector.finish col;
  Alcotest.(check int) "every event handed off" !received !handed;
  Alcotest.(check bool) "buckets left during the run" true
    (handed_in_run > !received / 2);
  let bound =
    4 * (interval_insts + Config.alpha21264_like.Config.rob_size + 16)
  in
  if !high > bound then
    Alcotest.failf "%d events buffered at once, bound %d" !high bound

(* The slot table orders every handed-off array exactly as the
   comparison sort on (seq, stage rank) it replaced, and no two events
   tie under that order. Checked over adpcm decode's oracle intervals
   and L+F training segments. *)
let test_slot_order_is_sort_order () =
  let module Runner = Mcd_experiments.Runner in
  let module Workload = Mcd_workloads.Workload in
  let key (e : Probe.event) = (e.Probe.seq, Probe.stage_rank e.Probe.stage) in
  let arrays = ref 0 in
  let check what (events : Probe.event array) =
    incr arrays;
    let sorted = Array.copy events in
    Array.sort
      (fun (a : Probe.event) (b : Probe.event) ->
        match Int.compare a.Probe.seq b.Probe.seq with
        | 0 ->
            Int.compare
              (Probe.stage_rank a.Probe.stage)
              (Probe.stage_rank b.Probe.stage)
        | c -> c)
      sorted;
    Array.iteri
      (fun i e ->
        if e != sorted.(i) then
          Alcotest.failf "%s: event %d out of order" what i;
        if i > 0 && compare (key events.(i - 1)) (key e) >= 0 then
          Alcotest.failf "%s: events %d and %d tie" what (i - 1) i)
      events
  in
  let w = Mcd_workloads.Suite.by_name "adpcm decode" in
  let intervals =
    Interval_collector.create ~on_interval:(check "interval") ()
  in
  let _ =
    Pipeline.run
      ~probe:(Interval_collector.probe intervals)
      ~config:Config.alpha21264_like ~program:w.Workload.program
      ~input:w.Workload.reference
      ~max_insts:(w.Workload.ref_offset + w.Workload.ref_window) ()
  in
  Interval_collector.finish intervals;
  let tree = Runner.training_tree w ~context:Context.lf ~train:`Train in
  let segments =
    Collector.create ~tree ~on_segment:(fun _ -> check "segment") ()
  in
  let input, _ = Runner.analysis_input w ~train:`Train in
  let _ =
    Pipeline.run ~probe:(Collector.probe segments)
      ~config:Config.alpha21264_like ~program:w.Workload.program ~input
      ~max_insts:(Runner.analysis_trace_insts w ~train:`Train) ()
  in
  Collector.finish segments;
  Alcotest.(check bool) "intervals and segments checked" true (!arrays > 10)

let suite =
  [
    ("segments for long nodes", `Quick, test_segments_for_long_nodes);
    ("interval bucketing", `Quick, test_interval_bucketing);
    ("interval events sorted", `Quick, test_interval_events_sorted);
    ("interval cap", `Quick, test_interval_cap);
    ("segment events sorted", `Quick, test_segment_events_sorted);
    ("segment cap respected", `Quick, test_segment_cap_respected);
    ("event cap respected", `Quick, test_event_cap_respected);
    ("no long nodes, no segments", `Quick, test_no_long_nodes_no_segments);
    ("nested attribution disjoint", `Quick, test_nested_attribution);
    ("intervals seen", `Quick, test_intervals_seen);
    ("interval buffering bounded", `Quick, test_interval_buffering_bounded);
    ("slot order is sort order", `Slow, test_slot_order_is_sort_order);
  ]
