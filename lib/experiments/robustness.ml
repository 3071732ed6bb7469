module Workload = Mcd_workloads.Workload
module Suite = Mcd_workloads.Suite
module Metrics = Mcd_power.Metrics
module Pipeline = Mcd_cpu.Pipeline
module Config = Mcd_cpu.Config
module Context = Mcd_profiling.Context
module Plan = Mcd_core.Plan
module Plan_io = Mcd_core.Plan_io
module Editor = Mcd_core.Editor
module Freq = Mcd_domains.Freq
module Rng = Mcd_util.Rng
module Table = Mcd_util.Table
module Inject = Mcd_robust.Inject
module Degrade = Mcd_robust.Degrade

type recovery = Clean | Repaired | Rejected_to_baseline

type outcome = {
  workload : string;
  fault : string;
  crashed : string option;
  recovery : recovery;
  load_diagnostics : int;
  interventions : int;
  slowdown_pct : float;
  bound_pct : float;
  within_bound : bool;
}

type report = {
  outcomes : outcome list;
  crashes : int;
  bound_violations : int;
}

let clean r = r.crashes = 0 && r.bound_violations = 0

let context = Context.lf

(* Tolerance on the bound comparison: simulation noise between two runs
   of the same machine, not a policy allowance. *)
let bound_slack_pct = 0.5

let guarded_run (w : Workload.t) ?(dvfs_faults = []) controller =
  Pipeline.run ~controller ~dvfs_faults ~config:Config.alpha21264_like
    ~warmup_insts:w.Workload.ref_offset ~program:w.Workload.program
    ~input:w.Workload.reference ~max_insts:w.Workload.ref_window ()

(* What happened after the fault landed: the run that was actually
   performed, how it recovered, and the diagnostic counts. *)
let eval_cell (w : Workload.t) fault ~rng =
  let baseline = Runner.baseline w in
  match fault with
  | Inject.File ff ->
      let plan = Runner.plan_for w ~context ~train:`Train in
      let path = Filename.temp_file "mcd_robust" ".plan" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Plan_io.save plan ~path;
          Inject.corrupt_file ff ~rng ~path;
          match Plan_io.load_result ~path ~tree:plan.Plan.tree with
          | Result.Error errors ->
              (* the plan is refused: ship nothing, run the full-speed
                 baseline *)
              (baseline, Rejected_to_baseline, List.length errors, 0)
          | Result.Ok { Plan_io.plan = repaired; warnings } ->
              let edited = Editor.edit repaired in
              let counters = Degrade.counters () in
              let guarded =
                Degrade.guard ~counters edited.Editor.controller
              in
              let run = guarded_run w guarded in
              let interventions = Degrade.interventions counters in
              let recovery =
                if warnings = [] && interventions = 0 then Clean else Repaired
              in
              (run, recovery, List.length warnings, interventions))
  | Inject.Runtime rf ->
      let plan = Runner.plan_for w ~context ~train:`Train in
      let edited = Editor.edit plan in
      let counters = Degrade.counters () in
      let guarded = Degrade.guard ~counters edited.Editor.controller in
      let controller = Inject.harness rf ~rng guarded in
      let dvfs_faults = Inject.dvfs_faults rf ~rng in
      let run = guarded_run w ~dvfs_faults controller in
      let interventions = Degrade.interventions counters in
      let recovery = if interventions = 0 then Clean else Repaired in
      (run, recovery, 0, interventions)

let cell (w : Workload.t) fault ~rng =
  let baseline = Runner.baseline w in
  (* the synchronous-machine bound: a whole core pinned at the frequency
     floor is the worst machine any legally-clamped degraded run can
     approach *)
  let sync_floor = Runner.single_clock w ~mhz:Freq.fmin_mhz in
  let bound_pct = Metrics.perf_degradation_pct ~baseline sync_floor in
  match eval_cell w fault ~rng with
  | run, recovery, load_diagnostics, interventions ->
      let slowdown_pct = Metrics.perf_degradation_pct ~baseline run in
      let within_bound =
        match recovery with
        | Rejected_to_baseline ->
            (* degrading to baseline must mean *being* the baseline *)
            Float.abs slowdown_pct <= 0.01
        | Clean | Repaired -> slowdown_pct <= bound_pct +. bound_slack_pct
      in
      {
        workload = w.Workload.name;
        fault = Inject.name fault;
        crashed = None;
        recovery;
        load_diagnostics;
        interventions;
        slowdown_pct;
        bound_pct;
        within_bound;
      }
  | exception e ->
      {
        workload = w.Workload.name;
        fault = Inject.name fault;
        crashed = Some (Printexc.to_string e);
        recovery = Clean;
        load_diagnostics = 0;
        interventions = 0;
        slowdown_pct = Float.nan;
        bound_pct;
        within_bound = false;
      }

let run ?(workloads = Suite.all) ?(faults = Inject.all) ~seed () =
  let master = Rng.create seed in
  let outcomes =
    List.concat_map
      (fun w ->
        List.map
          (fun fault ->
            let rng =
              Rng.split master
                ~label:(w.Workload.name ^ "/" ^ Inject.name fault)
            in
            cell w fault ~rng)
          faults)
      workloads
  in
  {
    outcomes;
    crashes = List.length (List.filter (fun o -> o.crashed <> None) outcomes);
    bound_violations =
      List.length
        (List.filter (fun o -> o.crashed = None && not o.within_bound) outcomes);
  }

let status o =
  match (o.crashed, o.recovery) with
  | Some e, _ -> "CRASH: " ^ e
  | None, Clean -> "clean"
  | None, Repaired -> "repaired"
  | None, Rejected_to_baseline -> "baseline"

let render r =
  let rows =
    List.map
      (fun o ->
        [
          o.workload;
          o.fault;
          status o;
          string_of_int o.load_diagnostics;
          string_of_int o.interventions;
          (if Float.is_nan o.slowdown_pct then "-"
           else Table.fmt_pct o.slowdown_pct);
          Table.fmt_pct o.bound_pct;
          (if o.within_bound then "ok" else "VIOLATION");
        ])
      r.outcomes
  in
  Table.render
    ~header:
      [
        "workload"; "fault"; "status"; "diags"; "interv"; "slowdown";
        "sync bound"; "check";
      ]
    ~rows ()
  ^ Printf.sprintf "%d cells: %d crashes, %d bound violations -> %s\n"
      (List.length r.outcomes) r.crashes r.bound_violations
      (if clean r then "PASS" else "FAIL")
