module Call_tree = Mcd_profiling.Call_tree
module Context = Mcd_profiling.Context
module Collector = Mcd_trace.Collector
module Pipeline = Mcd_cpu.Pipeline
module Config = Mcd_cpu.Config
module Histogram = Mcd_util.Histogram
module Vec = Mcd_util.Vec

type stats = {
  profiled_insts : int;
  traced_insts : int;
  long_nodes : int;
  segments_shaken : int;
  events_shaken : int;
  shaker_passes_total : int;
}

type shaken = {
  result : Shaker.result;
  paths : Path_model.segment;
  duration_ps : float;
}

let min_events = 50

let shake ?max_passes ~config events =
  if Array.length events < min_events then None
  else begin
    let dag = Dag.build ~rob_size:config.Config.rob_size events in
    let result = Shaker.run ?max_passes dag in
    Some
      {
        result;
        paths = Dag.path_signatures dag;
        duration_ps = dag.Dag.t_max -. dag.Dag.t_min;
      }
  end

(* one long node's merged shaker output *)
type node = {
  node_id : int;
  merged : Histogram.t array;
  mutable paths : Path_model.t;
  mutable used : bool; (* some segment reached [min_events] *)
}

let analyze ~program ~train ~context ?(slowdown_pct = 7.0)
    ?(threshold_insts = Call_tree.default_threshold)
    ?(profile_insts = 400_000) ?(trace_insts = 120_000) ?(shaker_passes = 24)
    ?(config = Config.alpha21264_like) () =
  (* phase 1: instrumented profiling walk *)
  let tree =
    Call_tree.build program ~input:train ~context ~threshold:threshold_insts
      ~max_insts:profile_insts ()
  in
  (* phase 2: full-speed pipeline run with the trace probe; each segment
     is shaken as soon as the collector hands it off, and merged into
     its node's histograms and path model in stream order *)
  let segments_shaken = ref 0 in
  let events_shaken = ref 0 in
  let passes_total = ref 0 in
  let nodes = Vec.create () and node_of_id = Hashtbl.create 32 in
  let on_segment node_id seg =
    let node =
      match Hashtbl.find_opt node_of_id node_id with
      | Some node -> node
      | None ->
          let node =
            {
              node_id;
              merged = Plan.empty_histograms ();
              paths = Path_model.empty;
              used = false;
            }
          in
          Hashtbl.add node_of_id node_id node;
          Vec.push nodes node;
          node
    in
    match shake ~max_passes:shaker_passes ~config seg with
    | None -> ()
    | Some { result; paths; _ } ->
        incr segments_shaken;
        events_shaken := !events_shaken + result.Shaker.total_events;
        passes_total := !passes_total + result.Shaker.passes;
        Array.iteri
          (fun i h -> Histogram.merge_into ~dst:node.merged.(i) ~src:h)
          result.Shaker.histograms;
        node.paths <- Path_model.add_segment node.paths paths;
        node.used <- true
  in
  let collector = Collector.create ~tree ~on_segment () in
  let metrics =
    Pipeline.run ~probe:(Collector.probe collector) ~config ~program
      ~input:train ~max_insts:trace_insts ()
  in
  Collector.finish collector;
  (* nodes in the order of their first segment, listed last to first *)
  let node_histograms, node_paths =
    Vec.fold_left
      (fun (hs, ps) node ->
        if node.used then
          ((node.node_id, node.merged) :: hs, (node.node_id, node.paths) :: ps)
        else (hs, ps))
      ([], []) nodes
  in
  let plan =
    Plan.make ~tree ~context ~slowdown_pct ~node_histograms ~node_paths ()
  in
  let stats =
    {
      profiled_insts = Call_tree.instructions_profiled tree;
      traced_insts = metrics.Mcd_power.Metrics.instructions;
      long_nodes = Call_tree.long_count tree;
      segments_shaken = !segments_shaken;
      events_shaken = !events_shaken;
      shaker_passes_total = !passes_total;
    }
  in
  (plan, stats)
