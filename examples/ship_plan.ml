(* Shipping a reconfiguration plan.

   The paper's work flow is train once, edit the binary, run the edited
   binary in production forever. The plan file is this library's edited
   binary: this example trains, saves the plan to disk, then — as a
   "production machine" would — rebuilds the call tree from the same
   program and training input, loads the plan (fingerprint-checked), and
   runs production with it. A tampered or stale plan is rejected.
   Exits 1 if the shipped plan is refused or the stale one accepted.

     dune exec examples/ship_plan.exe *)

module Suite = Mcd_workloads.Suite
module Workload = Mcd_workloads.Workload
module Context = Mcd_profiling.Context
module Call_tree = Mcd_profiling.Call_tree
module Analyze = Mcd_core.Analyze
module Plan_io = Mcd_core.Plan_io
module Editor = Mcd_core.Editor
module Pipeline = Mcd_cpu.Pipeline
module Config = Mcd_cpu.Config
module Metrics = Mcd_power.Metrics
module Error = Mcd_robust.Error

let diagnostics errors = String.concat "; " (List.map Error.to_string errors)

let () =
  let w = Suite.by_name "jpeg compress" in
  let path = Filename.temp_file "jpeg_compress" ".plan" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());

  (* --- development machine: train and save ------------------------- *)
  let plan, _ =
    Analyze.analyze ~program:w.Workload.program ~train:w.Workload.train
      ~context:Context.lf ~trace_insts:w.Workload.train_window ()
  in
  Plan_io.save plan ~path;
  Printf.printf "trained and saved plan: %s (%d bytes)\n%!" path
    (Unix.stat path).Unix.st_size;

  (* --- production machine: rebuild the tree, load, run ------------- *)
  let tree =
    Call_tree.build w.Workload.program ~input:w.Workload.train
      ~context:Context.lf ~max_insts:400_000 ()
  in
  let loaded =
    match Plan_io.load_result ~path ~tree with
    | Ok { Plan_io.plan; warnings = _ } -> plan
    | Error errors ->
        Printf.printf "BUG: shipped plan refused: %s\n" (diagnostics errors);
        exit 1
  in
  let edited = Editor.edit loaded in
  let baseline =
    Pipeline.run ~config:Config.alpha21264_like
      ~warmup_insts:w.Workload.ref_offset ~program:w.Workload.program
      ~input:w.Workload.reference ~max_insts:w.Workload.ref_window ()
  in
  let run =
    Pipeline.run ~controller:edited.Editor.controller
      ~config:Config.alpha21264_like ~warmup_insts:w.Workload.ref_offset
      ~program:w.Workload.program ~input:w.Workload.reference
      ~max_insts:w.Workload.ref_window ()
  in
  Printf.printf
    "production run with the shipped plan: %.1f%% slowdown, %.1f%% energy \
     savings\n"
    (Metrics.perf_degradation_pct ~baseline run)
    (Metrics.energy_savings_pct ~baseline run);

  (* --- a stale plan is refused -------------------------------------- *)
  let other = Suite.by_name "jpeg decompress" in
  let wrong_tree =
    Call_tree.build other.Workload.program ~input:other.Workload.train
      ~context:Context.lf ~max_insts:400_000 ()
  in
  match Plan_io.load_result ~path ~tree:wrong_tree with
  | Ok _ ->
      print_endline "BUG: stale plan accepted";
      exit 1
  | Error errors ->
      Printf.printf "stale plan correctly refused: %s\n" (diagnostics errors)
