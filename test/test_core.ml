(* Tests for the paper's analysis pipeline: dependence DAGs, the shaker,
   slowdown thresholding, the path model, plans, and the editor. *)

module B = Mcd_isa.Build
module P = Mcd_isa.Program
module Inst = Mcd_isa.Inst
module Walker = Mcd_isa.Walker
module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq
module Reconfig = Mcd_domains.Reconfig
module Probe = Mcd_cpu.Probe
module Controller = Mcd_cpu.Controller

let qcheck ?(seed = 0xc03e) t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
module Context = Mcd_profiling.Context
module Call_tree = Mcd_profiling.Call_tree
module Histogram = Mcd_util.Histogram
module Dag = Mcd_core.Dag
module Shaker = Mcd_core.Shaker
module Threshold = Mcd_core.Threshold
module Path_model = Mcd_core.Path_model
module Plan = Mcd_core.Plan
module Editor = Mcd_core.Editor
module Analyze = Mcd_core.Analyze

let check_float = Alcotest.(check (float 1e-6))

(* Hand-built event streams: a chain of [n] instructions, each with
   fetch/execute/retire events; instruction i's execute depends on
   instruction i-1's. [gap_cycles] inserts slack between dependent
   executes. *)
let chain_events ?(domain = Domain.Integer) ?(gap_cycles = 0) n =
  let events = ref [] in
  let cycle = 1000 in
  for i = 0 to n - 1 do
    let fetch_start = i * cycle in
    let exec_start = (i * (1 + gap_cycles) * cycle) + (2 * cycle) in
    let retire_start = exec_start + (2 * cycle) in
    events :=
      {
        Probe.seq = i;
        static_id = i;
        klass = Inst.Int_alu;
        stage = Probe.Retire_s;
        domain = Domain.Front_end;
        start = retire_start;
        duration = cycle;
        dep_seqs = [||];
      }
      :: {
           Probe.seq = i;
           static_id = i;
           klass = Inst.Int_alu;
           stage = Probe.Execute_s;
           domain;
           start = exec_start;
           duration = cycle;
           dep_seqs = (if i > 0 then [| i - 1 |] else [||]);
         }
      :: {
           Probe.seq = i;
           static_id = i;
           klass = Inst.Int_alu;
           stage = Probe.Fetch_s;
           domain = Domain.Front_end;
           start = fetch_start;
           duration = cycle;
           dep_seqs = [||];
         }
      :: !events
  done;
  let arr = Array.of_list !events in
  Array.sort
    (fun (a : Probe.event) b ->
      compare
        (a.Probe.seq, a.Probe.stage = Probe.Retire_s, a.Probe.stage = Probe.Execute_s)
        (b.Probe.seq, b.Probe.stage = Probe.Retire_s, b.Probe.stage = Probe.Execute_s))
    arr;
  arr

(* --- Dag ------------------------------------------------------------- *)

let test_dag_build_counts () =
  let dag = Dag.build (chain_events 10) in
  Alcotest.(check int) "events" 30 (Dag.size dag);
  Alcotest.(check bool) "has edges" true (Dag.edge_count dag > 30);
  Dag.validate dag

let test_dag_empty () =
  let dag = Dag.build [||] in
  Alcotest.(check int) "empty" 0 (Dag.size dag)

(* (seq, stage rank) names one event: a second event at a filled slot
   would take over its edges, so the build refuses it, whether the two
   share a stage or only a rank (execute and mem) *)
let test_dag_duplicate_slot_rejected () =
  let events = chain_events 4 in
  let dup stage e = { e with Probe.stage; start = e.Probe.start + 1 } in
  let insert_after i e =
    Array.concat
      [
        Array.sub events 0 (i + 1);
        [| e |];
        Array.sub events (i + 1) (Array.length events - i - 1);
      ]
  in
  (* events.(3) is instruction 1's fetch, events.(4) its execute *)
  List.iter
    (fun (what, raw) ->
      match Dag.build raw with
      | _ -> Alcotest.failf "%s: duplicate slot accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("same stage", insert_after 3 (dup Probe.Fetch_s events.(3)));
      ("execute and mem", insert_after 4 (dup Probe.Mem_s events.(4)));
    ]

let test_dag_slack_nonnegative () =
  let dag = Dag.build (chain_events ~gap_cycles:3 10) in
  for i = 0 to Dag.size dag - 1 do
    if Dag.slack dag i < 0.0 then Alcotest.fail "negative slack"
  done

let test_dag_base_path_is_makespan () =
  let dag = Dag.build (chain_events ~gap_cycles:2 20) in
  let signature = Dag.longest_path_signature dag ~slow:(fun _ -> 1.0) in
  let total = Array.fold_left ( +. ) 0.0 signature in
  check_float "base path equals recorded makespan"
    (dag.Dag.t_max -. dag.Dag.t_min) total

let test_dag_signature_senses_domain () =
  let dag = Dag.build (chain_events ~domain:Domain.Integer 20) in
  let sig4 =
    Dag.longest_path_signature dag ~slow:(fun d ->
        if d = Domain.Integer then 4.0 else 1.0)
  in
  Alcotest.(check bool) "integer time on the binding path" true
    (sig4.(Domain.index Domain.Integer) > 0.0)

(* The standard probe set, in [Dag.path_signatures] order: full speed,
   everything 4x slower, then each domain 4x slower alone. *)
let standard_probes =
  (fun (_ : Domain.t) -> 1.0)
  :: (fun (_ : Domain.t) -> 4.0)
  :: List.map (fun d other -> if other = d then 4.0 else 1.0) Domain.all

let bits a = Array.map Int64.bits_of_float a

(* The fused DP equals one single-probe walk per probe, bit for bit, and
   the critical-path length is the sum of the full-speed probe. *)
let path_signatures_exact dag =
  let seg = Dag.path_signatures dag in
  List.length seg.Path_model.signatures = List.length standard_probes
  && List.for_all2
       (fun signature slow ->
         bits signature = bits (Dag.longest_path_signature dag ~slow))
       seg.Path_model.signatures standard_probes
  && Int64.bits_of_float seg.Path_model.base_ps
     = Int64.bits_of_float
         (Array.fold_left ( +. ) 0.0 (List.hd seg.Path_model.signatures))

let test_dag_path_signatures_probe_set () =
  let dag = Dag.build (chain_events 10) in
  let seg = Dag.path_signatures dag in
  Alcotest.(check bool) "base positive" true (seg.Path_model.base_ps > 0.0);
  Alcotest.(check int) "six probes" 6 (List.length seg.Path_model.signatures);
  List.iteri
    (fun i (signature, slow) ->
      Alcotest.(check (array int64))
        (Printf.sprintf "probe %d bit-equal to its own walk" i)
        (bits (Dag.longest_path_signature dag ~slow))
        (bits signature))
    (List.combine seg.Path_model.signatures standard_probes);
  Alcotest.(check int64) "base_ps is the sum of probe 0"
    (Int64.bits_of_float
       (Array.fold_left ( +. ) 0.0 (List.hd seg.Path_model.signatures)))
    (Int64.bits_of_float seg.Path_model.base_ps);
  Alcotest.(check bool) "empty dag" true (path_signatures_exact (Dag.build [||]))

(* --- Shaker ----------------------------------------------------------- *)

let test_shaker_no_slack_no_stretch () =
  (* a dense serial chain in one domain has no slack to distribute *)
  let dag = Dag.build (chain_events ~gap_cycles:0 30) in
  let r = Shaker.run dag in
  (* everything the critical chain owns stays at (or near) full speed:
     total work is conserved in the histograms *)
  let total =
    Array.fold_left (fun acc h -> acc +. Histogram.total h) 0.0 r.Shaker.histograms
  in
  let expected =
    Array.fold_left (fun acc d -> acc +. (d /. 1000.0)) 0.0 dag.Dag.dur
  in
  check_float "work conserved" expected total

let test_shaker_slack_gets_stretched () =
  let dag = Dag.build (chain_events ~gap_cycles:4 30) in
  let r = Shaker.run dag in
  Alcotest.(check bool) "some events stretched" true
    (r.Shaker.stretched_events > 0);
  Alcotest.(check bool) "passes ran" true (r.Shaker.passes >= 1)

let test_shaker_histogram_bins_valid () =
  let dag = Dag.build (chain_events ~gap_cycles:4 30) in
  let r = Shaker.run dag in
  Array.iter
    (fun h -> Alcotest.(check int) "bins" Freq.num_steps (Histogram.bins h))
    r.Shaker.histograms

let test_shaker_more_passes_more_stretch () =
  let dag = Dag.build (chain_events ~gap_cycles:4 40) in
  let one = Shaker.run ~max_passes:1 dag in
  let many = Shaker.run ~max_passes:24 dag in
  Alcotest.(check bool) "monotone in passes" true
    (many.Shaker.stretched_events >= one.Shaker.stretched_events)

let test_shaker_frequencies_of_durations () =
  let orig = [| 1000.0; 1000.0; 1000.0 |] in
  let stretched = [| 1000.0; 2000.0; 4000.0 |] in
  let fs = Shaker.frequencies_of_durations ~orig ~stretched in
  Alcotest.(check (array int)) "implied steps" [| 1000; 500; 250 |] fs

(* --- Threshold -------------------------------------------------------- *)

let hist_of assocs =
  let h = Histogram.create ~bins:Freq.num_steps in
  List.iter
    (fun (mhz, cycles) -> Histogram.add h ~bin:(Freq.index_of mhz) ~weight:cycles)
    assocs;
  h

let test_threshold_empty_floor () =
  Alcotest.(check int) "no work -> floor" Freq.fmin_mhz
    (Threshold.choose (Histogram.create ~bins:Freq.num_steps) ~slowdown_pct:7.0)

let test_threshold_all_full_speed_zero_budget () =
  let h = hist_of [ (1000, 100.0) ] in
  Alcotest.(check int) "no budget keeps fmax" Freq.fmax_mhz
    (Threshold.choose h ~slowdown_pct:0.0)

let test_threshold_all_slow_events () =
  let h = hist_of [ (250, 100.0) ] in
  Alcotest.(check int) "all work already slow" 250
    (Threshold.choose h ~slowdown_pct:1.0)

let test_threshold_budget_math () =
  (* 90 cycles ideally at 500 MHz and 10 at 1000: running everything at
     500 costs the 10 fast cycles an extra (2-1) x 10 = 10 time units on
     an ideal total of 190 -> 5.26% *)
  let h = hist_of [ (500, 90.0); (1000, 10.0) ] in
  check_float "expected slowdown at 500" (100.0 *. 10.0 /. 190.0)
    (Threshold.expected_slowdown h ~freq_mhz:500);
  Alcotest.(check int) "6% budget admits 500" 500
    (Threshold.choose h ~slowdown_pct:6.0);
  Alcotest.(check bool) "4% budget needs more speed" true
    (Threshold.choose h ~slowdown_pct:4.0 > 500)

let test_threshold_monotone_in_budget () =
  let h = hist_of [ (250, 20.0); (500, 30.0); (1000, 50.0) ] in
  let prev = ref Freq.fmax_mhz in
  List.iter
    (fun delta ->
      let f = Threshold.choose h ~slowdown_pct:delta in
      if f > !prev then Alcotest.fail "frequency rose with a looser budget";
      prev := f)
    [ 0.0; 2.0; 5.0; 10.0; 20.0; 50.0 ]

let test_threshold_negative_budget_rejected () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Threshold.choose: negative slowdown") (fun () ->
      ignore (Threshold.choose (hist_of [ (1000, 1.0) ]) ~slowdown_pct:(-1.0)))

let test_threshold_setting_of_histograms () =
  let hists =
    Array.init Domain.count (fun i ->
        if i = Domain.index Domain.Floating then
          Histogram.create ~bins:Freq.num_steps
        else hist_of [ (1000, 100.0) ])
  in
  let s = Threshold.setting_of_histograms hists ~slowdown_pct:0.0 in
  Alcotest.(check int) "idle fp at floor" Freq.fmin_mhz
    (Reconfig.get s Domain.Floating);
  Alcotest.(check int) "busy int at fmax" Freq.fmax_mhz
    (Reconfig.get s Domain.Integer)

(* --- Path model ------------------------------------------------------- *)

let segment ~base signatures = { Path_model.base_ps = base; signatures }

let test_path_model_estimate () =
  (* one path: 60% integer time, 40% constant *)
  let pm =
    Path_model.add_segment Path_model.empty
      (segment ~base:1000.0 [ [| 0.0; 600.0; 0.0; 0.0; 400.0 |] ])
  in
  let s = Reconfig.make ~front_end:1000 ~integer:500 ~floating:1000 ~memory:1000 in
  (* integer stretches 2x: 600 -> 1200; total 1600 vs 1000 -> +60% *)
  check_float "estimate" 60.0 (Path_model.estimated_slowdown_pct pm s);
  check_float "full speed is zero" 0.0
    (Path_model.estimated_slowdown_pct pm (Reconfig.full_speed ()))

let test_path_model_max_over_signatures () =
  let pm =
    Path_model.add_segment Path_model.empty
      (segment ~base:1000.0
         [ [| 0.0; 1000.0; 0.0; 0.0; 0.0 |]; [| 0.0; 0.0; 1000.0; 0.0; 0.0 |] ])
  in
  let s = Reconfig.make ~front_end:1000 ~integer:1000 ~floating:500 ~memory:1000 in
  check_float "worst signature binds" 100.0
    (Path_model.estimated_slowdown_pct pm s)

let test_path_model_refine_raises_frequencies () =
  let pm =
    Path_model.add_segment Path_model.empty
      (segment ~base:1000.0 [ [| 0.0; 900.0; 0.0; 0.0; 100.0 |] ])
  in
  let aggressive =
    Reconfig.make ~front_end:1000 ~integer:250 ~floating:250 ~memory:1000
  in
  let refined = Path_model.refine pm aggressive ~slowdown_pct:7.0 in
  Alcotest.(check bool) "integer raised" true
    (Reconfig.get refined Domain.Integer > 250);
  (* the floating domain is off the path: no reason to raise it *)
  Alcotest.(check int) "floating untouched" 250
    (Reconfig.get refined Domain.Floating);
  Alcotest.(check bool) "estimate within tolerance" true
    (Path_model.estimated_slowdown_pct pm refined <= 7.0 *. 1.20)

let test_path_model_refine_empty_noop () =
  let s = Reconfig.make ~front_end:500 ~integer:500 ~floating:500 ~memory:500 in
  let refined = Path_model.refine Path_model.empty s ~slowdown_pct:1.0 in
  Alcotest.(check bool) "unchanged" true (Reconfig.equal refined s)

let test_path_model_union () =
  let a =
    Path_model.add_segment Path_model.empty
      (segment ~base:500.0 [ [| 500.0; 0.0; 0.0; 0.0; 0.0 |] ])
  in
  let b =
    Path_model.add_segment Path_model.empty
      (segment ~base:500.0 [ [| 0.0; 500.0; 0.0; 0.0; 0.0 |] ])
  in
  let u = Path_model.union a b in
  let s = Reconfig.make ~front_end:500 ~integer:1000 ~floating:1000 ~memory:1000 in
  (* only the front-end segment stretches: +500 on a base of 1000 *)
  check_float "weighted across segments" 50.0
    (Path_model.estimated_slowdown_pct u s)

let test_swing_allowance_math () =
  (* zero duration: no swing allowed *)
  Alcotest.(check int) "zero duration" 0
    (Plan.swing_allowance_mhz ~duration_ps:0.0 ~f_target_mhz:1000);
  (* longer nodes tolerate bigger swings, monotonically *)
  let a = Plan.swing_allowance_mhz ~duration_ps:10_000_000.0 ~f_target_mhz:1000 in
  let b = Plan.swing_allowance_mhz ~duration_ps:40_000_000.0 ~f_target_mhz:1000 in
  Alcotest.(check bool) "positive" true (a > 0);
  (* quadratic ramp cost: 4x duration allows 2x swing *)
  Alcotest.(check bool) "sqrt growth" true
    (abs (b - (2 * a)) <= 2);
  (* a multi-millisecond phase (the paper's regime) tolerates the full
     750 MHz range *)
  let huge =
    Plan.swing_allowance_mhz ~duration_ps:5_000_000_000.0 ~f_target_mhz:1000
  in
  Alcotest.(check bool) "paper-scale phases unconstrained" true (huge >= 750)

(* --- Plan / Editor / Analyze ----------------------------------------- *)

let two_phase_program () =
  B.program ~name:"twophase" @@ fun b ->
  B.func b "int_phase"
    [ B.loop b (P.Const 60) [ B.straight b ~length:40 () ] ];
  B.func b "fp_phase"
    [ B.loop b (P.Const 60) [ B.straight b ~length:40 ~frac_fp_alu:0.35 () ] ];
  B.func b "main"
    [ B.loop b (P.Const 15) [ B.call b "int_phase"; B.call b "fp_phase" ] ];
  "main"

let test_input = { P.input_name = "t"; scale = 1; divergence = 0.0; seed = 33 }

let analyze_two_phase ?(context = Context.lf) () =
  Analyze.analyze ~program:(two_phase_program ()) ~train:test_input ~context
    ~threshold_insts:1_500 ~profile_insts:80_000 ~trace_insts:40_000 ()

let test_analyze_finds_long_nodes () =
  let plan, stats = analyze_two_phase () in
  Alcotest.(check bool) "long nodes found" true (stats.Analyze.long_nodes > 0);
  Alcotest.(check bool) "segments shaken" true (stats.Analyze.segments_shaken > 0);
  Alcotest.(check bool) "settings produced" true
    (Hashtbl.length plan.Plan.node_settings > 0)

let test_analyze_int_phase_scales_fp () =
  (* a purely integer program: every phase agrees the fp domain is idle,
     so nothing stops the plan from flooring it *)
  let prog =
    B.program ~name:"intonly" @@ fun b ->
    B.func b "kernel"
      [ B.loop b (P.Const 80) [ B.straight b ~length:40 () ] ];
    B.func b "main" [ B.loop b (P.Const 20) [ B.call b "kernel" ] ];
    "main"
  in
  let plan, _ =
    Analyze.analyze ~program:prog ~train:test_input ~context:Context.lf
      ~threshold_insts:1_500 ~profile_insts:60_000 ~trace_insts:40_000 ()
  in
  let fp_choices =
    List.filter_map
      (fun (n : Call_tree.node) ->
        match Plan.setting_for_node plan n.Call_tree.id with
        | Some s -> Some (Reconfig.get s Domain.Floating)
        | None -> None)
      (Call_tree.long_nodes plan.Plan.tree)
  in
  Alcotest.(check bool) "some node floors fp" true
    (List.exists (fun f -> f = Freq.fmin_mhz) fp_choices);
  (* in the two-phase program, swing clamping keeps the int phase's fp
     within ramping distance of the fp phase's requirement — scaled, but
     not floored *)
  let plan2, _ = analyze_two_phase () in
  let fp2 =
    List.filter_map
      (fun (n : Call_tree.node) ->
        match Plan.setting_for_node plan2 n.Call_tree.id with
        | Some s -> Some (Reconfig.get s Domain.Floating)
        | None -> None)
      (Call_tree.long_nodes plan2.Plan.tree)
  in
  Alcotest.(check bool) "two-phase fp scaled but above floor" true
    (List.exists (fun f -> f < Freq.fmax_mhz) fp2)

let test_plan_with_slowdown_monotone () =
  let plan, _ = analyze_two_phase () in
  let tight = Plan.with_slowdown plan ~slowdown_pct:1.0 in
  let loose = Plan.with_slowdown plan ~slowdown_pct:20.0 in
  List.iter
    (fun (n : Call_tree.node) ->
      match
        ( Plan.setting_for_node tight n.Call_tree.id,
          Plan.setting_for_node loose n.Call_tree.id )
      with
      | Some ts, Some ls ->
          List.iter
            (fun d ->
              if Reconfig.get ls d > Reconfig.get ts d then
                Alcotest.fail "looser budget chose a higher frequency")
            Domain.all
      | (Some _ | None), _ -> ())
    (Call_tree.long_nodes plan.Plan.tree)

let test_plan_static_points () =
  let plan, _ = analyze_two_phase ~context:Context.lfcp () in
  let r = Plan.static_reconfig_points plan in
  let i = Plan.static_instr_points plan in
  Alcotest.(check bool) "reconfig points positive" true (r > 0);
  Alcotest.(check bool) "reconfig subset of instrumentation" true (i >= r)

let test_plan_static_points_no_paths () =
  let plan, _ = analyze_two_phase ~context:Context.lf () in
  Alcotest.(check int) "L+F instruments only reconfig points"
    (Plan.static_reconfig_points plan)
    (Plan.static_instr_points plan)

(* Drive an edited controller directly with a synthetic marker stream. *)
let test_editor_static_save_restore () =
  let plan, _ = analyze_two_phase ~context:Context.lf () in
  let prog = two_phase_program () in
  let int_fid = (P.find_func prog "int_phase").P.fid in
  let edited = Editor.edit plan in
  let ctl = edited.Editor.controller in
  (* find a long unit to enter: int_phase itself may not be long (its
     loop is); drive enter/exit of the loop instead via unit lookup *)
  let unit_setting =
    Plan.setting_for_unit plan (Call_tree.Func_unit int_fid)
  in
  match unit_setting with
  | Some s ->
      let r1 =
        ctl.Controller.on_marker
          (Walker.Enter_func { fid = int_fid; site_id = Some 0 })
          ~now:0
      in
      Alcotest.(check bool) "enter reconfigures" true
        (r1.Controller.set = Some s);
      let r2 =
        ctl.Controller.on_marker (Walker.Exit_func { fid = int_fid }) ~now:10
      in
      (match r2.Controller.set with
      | Some restored ->
          Alcotest.(check bool) "exit restores full speed" true
            (Reconfig.equal restored (Reconfig.full_speed ()))
      | None -> Alcotest.fail "exit should reconfigure");
      Alcotest.(check int) "two reconfig executions" 2
        edited.Editor.counters.Editor.reconfig_execs
  | None -> (
      (* the long unit is the loop: same protocol through loop markers *)
      let loop_unit =
        List.find_map
          (fun u ->
            match u with
            | Call_tree.Loop_unit _ -> Plan.setting_for_unit plan u |> Option.map (fun s -> (u, s))
            | Call_tree.Func_unit _ -> None)
          (Call_tree.long_static_units plan.Plan.tree)
      in
      match loop_unit with
      | Some (Call_tree.Loop_unit loop_id, s) ->
          let _ =
            ctl.Controller.on_marker
              (Walker.Enter_func { fid = int_fid; site_id = Some 0 })
              ~now:0
          in
          let r1 =
            ctl.Controller.on_marker (Walker.Enter_loop { loop_id }) ~now:1
          in
          Alcotest.(check bool) "loop entry reconfigures" true
            (r1.Controller.set = Some s);
          let r2 =
            ctl.Controller.on_marker (Walker.Exit_loop { loop_id }) ~now:2
          in
          Alcotest.(check bool) "loop exit restores" true
            (match r2.Controller.set with
            | Some restored -> Reconfig.equal restored (Reconfig.full_speed ())
            | None -> false)
      | Some (Call_tree.Func_unit _, _) | None ->
          Alcotest.fail "no long unit found")

let test_editor_paths_unknown_no_reconfig () =
  (* train without divergence, run markers for an untrained path *)
  let prog =
    B.program ~name:"unk" @@ fun b ->
    B.func b "hot" [ B.loop b (P.Const 100) [ B.straight b ~length:30 () ] ];
    B.func b "cold" [ B.call b "hot" ];
    B.func b "main"
      [
        B.loop b (P.Const 10)
          [
            B.choose b
              ~prob:(fun inp -> inp.P.divergence)
              [ B.call b "cold" ]
              [ B.call b "hot" ];
          ];
      ];
    "main"
  in
  let plan, _ =
    Analyze.analyze ~program:prog ~train:test_input ~context:Context.lfcp
      ~threshold_insts:1_000 ~profile_insts:60_000 ~trace_insts:30_000 ()
  in
  let edited = Editor.edit plan in
  let ctl = edited.Editor.controller in
  let main_fid = (P.find_func prog "main").P.fid in
  let cold_fid = (P.find_func prog "cold").P.fid in
  let hot_fid = (P.find_func prog "hot").P.fid in
  let _ =
    ctl.Controller.on_marker (Walker.Enter_func { fid = main_fid; site_id = None }) ~now:0
  in
  (* the call chain main -> cold -> hot never occurred in training: the
     tracker is on label 0 and must not reconfigure *)
  let cold_site = 999 (* a site id that was never trained *) in
  let _ =
    ctl.Controller.on_marker
      (Walker.Enter_func { fid = cold_fid; site_id = Some cold_site })
      ~now:1
  in
  let r =
    ctl.Controller.on_marker
      (Walker.Enter_func { fid = hot_fid; site_id = Some 998 })
      ~now:2
  in
  Alcotest.(check bool) "no reconfiguration on unknown path" true
    (r.Controller.set = None)

let test_analyze_offline_equals_profile_when_same_input () =
  let plan_a, _ = analyze_two_phase () in
  let plan_b, _ = analyze_two_phase () in
  (* analysis is deterministic *)
  let settings p =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.Plan.node_settings []
    |> List.sort compare
  in
  Alcotest.(check bool) "deterministic" true (settings plan_a = settings plan_b)

(* --- Oracle ------------------------------------------------------------ *)

let test_oracle_schedule_shape () =
  let prog = two_phase_program () in
  let analysis =
    Mcd_core.Oracle.analyze ~program:prog ~input:test_input
      ~interval_insts:5_000 ~trace_insts:40_000 ()
  in
  let schedule = Mcd_core.Oracle.schedule_of analysis ~slowdown_pct:7.0 in
  Alcotest.(check int) "interval size" 5_000
    schedule.Mcd_core.Oracle.interval_insts;
  Alcotest.(check bool) "covers the trace" true
    (Array.length schedule.Mcd_core.Oracle.settings >= 7);
  (* at least one interval scales something *)
  Alcotest.(check bool) "some scaling" true
    (Array.exists
       (fun s -> Array.exists (fun f -> f < Freq.fmax_mhz) s)
       schedule.Mcd_core.Oracle.settings)

let test_oracle_tighter_budget_higher_freqs () =
  let prog = two_phase_program () in
  let analysis =
    Mcd_core.Oracle.analyze ~program:prog ~input:test_input
      ~interval_insts:5_000 ~trace_insts:40_000 ()
  in
  let tight = Mcd_core.Oracle.schedule_of analysis ~slowdown_pct:1.0 in
  let loose = Mcd_core.Oracle.schedule_of analysis ~slowdown_pct:20.0 in
  Array.iteri
    (fun i ts ->
      let ls = loose.Mcd_core.Oracle.settings.(i) in
      Array.iteri
        (fun d tf ->
          if ls.(d) > tf then
            Alcotest.fail "looser budget chose a higher frequency")
        ts)
    tight.Mcd_core.Oracle.settings

let test_oracle_policy_playback () =
  let settings =
    [|
      Reconfig.make ~front_end:1000 ~integer:500 ~floating:250 ~memory:1000;
      Reconfig.make ~front_end:1000 ~integer:1000 ~floating:250 ~memory:500;
    |]
  in
  let schedule = { Mcd_core.Oracle.interval_insts = 1_000; settings } in
  let ctl = Mcd_core.Oracle.policy schedule in
  let sample total =
    {
      Controller.elapsed_cycles = 100;
      avg_occupancy = Array.make Domain.count 0.0;
      retired = 0;
      total_retired = total;
      l1d_misses = 0;
      l2_misses = 0;
      target_mhz = Array.make Domain.count Freq.fmax_mhz;
      current_mhz = Array.make Domain.count (float_of_int Freq.fmax_mhz);
    }
  in
  (match ctl.Controller.on_sample (sample 10) ~now:0 with
  | Some s -> Alcotest.(check bool) "interval 0" true (Reconfig.equal s settings.(0))
  | None -> Alcotest.fail "expected first write");
  Alcotest.(check bool) "no repeat within interval" true
    (ctl.Controller.on_sample (sample 500) ~now:1 = None);
  (match ctl.Controller.on_sample (sample 1_500) ~now:2 with
  | Some s -> Alcotest.(check bool) "interval 1" true (Reconfig.equal s settings.(1))
  | None -> Alcotest.fail "expected second write");
  (* beyond the schedule: stays at the last setting *)
  Alcotest.(check bool) "clamped to last" true
    (ctl.Controller.on_sample (sample 99_000) ~now:3 = None)

(* --- Plan_io ----------------------------------------------------------- *)

let test_plan_io_roundtrip () =
  let plan, _ = analyze_two_phase () in
  let path = Filename.temp_file "mcd_plan" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mcd_core.Plan_io.save plan ~path;
      let loaded =
        match Mcd_core.Plan_io.load_result ~path ~tree:plan.Plan.tree with
        | Ok { Mcd_core.Plan_io.plan; warnings = _ } -> plan
        | Error _ -> Alcotest.fail "saved plan did not load"
      in
      Alcotest.(check string) "context preserved"
        plan.Plan.context.Context.name loaded.Plan.context.Context.name;
      Alcotest.(check (float 1e-9)) "slowdown preserved"
        plan.Plan.slowdown_pct loaded.Plan.slowdown_pct;
      (* settings identical *)
      Hashtbl.iter
        (fun id s ->
          match Plan.setting_for_node loaded id with
          | Some s' ->
              Alcotest.(check bool) "node setting" true (Reconfig.equal s s')
          | None -> Alcotest.fail "missing node setting after load")
        plan.Plan.node_settings;
      Hashtbl.iter
        (fun u s ->
          match Plan.setting_for_unit loaded u with
          | Some s' ->
              Alcotest.(check bool) "unit setting" true (Reconfig.equal s s')
          | None -> Alcotest.fail "missing unit setting after load")
        plan.Plan.unit_settings;
      (* retained analysis data survives: re-thresholding still works *)
      let retightened = Plan.with_slowdown loaded ~slowdown_pct:2.0 in
      Alcotest.(check bool) "re-threshold after load" true
        (Hashtbl.length retightened.Plan.node_settings > 0))

let test_plan_io_fingerprint_mismatch () =
  let plan, _ = analyze_two_phase () in
  let other_program =
    B.program ~name:"other" @@ fun b ->
    B.func b "k" [ B.loop b (P.Const 50) [ B.straight b ~length:30 () ] ];
    B.func b "main" [ B.call b "k"; B.call b "k" ];
    "main"
  in
  let other_tree =
    Call_tree.build other_program ~input:test_input ~context:Context.lf
      ~threshold:400 ~max_insts:20_000 ()
  in
  let path = Filename.temp_file "mcd_plan" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mcd_core.Plan_io.save plan ~path;
      match Mcd_core.Plan_io.load_result ~path ~tree:other_tree with
      | Ok _ -> Alcotest.fail "expected fingerprint mismatch"
      | Error _ -> ())

let test_plan_io_rejects_garbage () =
  let path = Filename.temp_file "mcd_plan" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a plan\n";
      close_out oc;
      let plan, _ = analyze_two_phase () in
      match Mcd_core.Plan_io.load_result ~path ~tree:plan.Plan.tree with
      | Ok _ -> Alcotest.fail "expected failure"
      | Error _ -> ())

(* typed-error loading: corruption yields diagnostics, not exceptions *)

module RError = Mcd_robust.Error

let saved_two_phase f =
  let plan, _ = analyze_two_phase () in
  let path = Filename.temp_file "mcd_plan" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mcd_core.Plan_io.save plan ~path;
      f plan path)

let map_plan_lines path ~f =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let oc = open_out path in
  List.iter (fun l -> output_string oc (f l ^ "\n")) (List.rev !lines);
  close_out oc

let test_load_result_truncated_file () =
  saved_two_phase (fun plan path ->
      let s =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let oc = open_out_bin path in
      output_string oc (String.sub s 0 (String.length s * 3 / 5));
      close_out oc;
      match Mcd_core.Plan_io.load_result ~path ~tree:plan.Plan.tree with
      | Ok _ -> Alcotest.fail "truncated plan loaded"
      | Error errors ->
          Alcotest.(check bool) "diagnostics produced" true (errors <> []);
          Alcotest.(check int) "validation exit code" 2
            (RError.exit_code_of_list errors))

let test_load_result_flipped_frequency () =
  saved_two_phase (fun plan path ->
      (* out of range: the whole plan is rejected with a typed error *)
      let flipped = ref false in
      map_plan_lines path ~f:(fun l ->
          if (not !flipped) && String.length l > 5 && String.sub l 0 5 = "node "
          then begin
            flipped := true;
            match String.rindex_opt l ',' with
            | Some i -> String.sub l 0 (i + 1) ^ "999999"
            | None -> l
          end
          else l);
      Alcotest.(check bool) "a setting was flipped" true !flipped;
      match Mcd_core.Plan_io.load_result ~path ~tree:plan.Plan.tree with
      | Ok _ -> Alcotest.fail "out-of-range frequency accepted"
      | Error errors ->
          Alcotest.(check bool) "illegal frequency reported" true
            (List.exists
               (function RError.Illegal_frequency _ -> true | _ -> false)
               errors))

let test_load_result_off_grid_snapped () =
  saved_two_phase (fun plan path ->
      (* in range but off the 50 MHz grid: snapped with a warning *)
      let flipped = ref false in
      map_plan_lines path ~f:(fun l ->
          if (not !flipped) && String.length l > 5 && String.sub l 0 5 = "node "
          then begin
            flipped := true;
            match String.rindex_opt l ',' with
            | Some i -> String.sub l 0 (i + 1) ^ "313"
            | None -> l
          end
          else l);
      Alcotest.(check bool) "a setting was flipped" true !flipped;
      match Mcd_core.Plan_io.load_result ~path ~tree:plan.Plan.tree with
      | Error _ -> Alcotest.fail "recoverable off-grid value rejected"
      | Ok { Mcd_core.Plan_io.plan = loaded; warnings } ->
          Alcotest.(check bool) "warning emitted" true
            (List.exists
               (function RError.Illegal_frequency _ -> true | _ -> false)
               warnings);
          Hashtbl.iter
            (fun _ s ->
              Array.iter
                (fun mhz ->
                  Alcotest.(check bool) "every loaded setting on grid" true
                    (Freq.is_step mhz))
                s)
            loaded.Plan.node_settings)

let test_load_result_fingerprint_mismatch () =
  saved_two_phase (fun plan path ->
      let other_program =
        B.program ~name:"other2" @@ fun b ->
        B.func b "k" [ B.loop b (P.Const 50) [ B.straight b ~length:30 () ] ];
        B.func b "main" [ B.call b "k"; B.call b "k" ];
        "main"
      in
      let other_tree =
        Call_tree.build other_program ~input:test_input ~context:Context.lf
          ~threshold:400 ~max_insts:20_000 ()
      in
      ignore plan;
      match Mcd_core.Plan_io.load_result ~path ~tree:other_tree with
      | Ok _ -> Alcotest.fail "stale plan accepted"
      | Error errors ->
          Alcotest.(check bool) "typed fingerprint mismatch" true
            (List.exists
               (function RError.Fingerprint_mismatch _ -> true | _ -> false)
               errors))

let test_load_result_missing_headers_warn () =
  (* Regression: a plan with its context/slowdown header lines stripped
     used to load silently on the defaults. The defaults still apply,
     but each absent field must now surface a warning. *)
  saved_two_phase (fun plan path ->
      map_plan_lines path ~f:(fun l ->
          let starts p =
            String.length l >= String.length p
            && String.sub l 0 (String.length p) = p
          in
          if starts "context " || starts "slowdown " then "" else l);
      match Mcd_core.Plan_io.load_result ~path ~tree:plan.Plan.tree with
      | Error errors ->
          Alcotest.failf "headerless plan rejected: %s"
            (String.concat "; " (List.map RError.to_string errors))
      | Ok { Mcd_core.Plan_io.plan = loaded; warnings } ->
          let missing =
            List.filter_map
              (function
                | RError.Missing_header_field { field; _ } -> Some field
                | _ -> None)
              warnings
          in
          Alcotest.(check (list string)) "both fields flagged"
            [ "context"; "slowdown" ] missing;
          Alcotest.(check string) "context defaulted"
            Context.lf.Context.name loaded.Plan.context.Context.name;
          Alcotest.(check (float 1e-9)) "slowdown defaulted" 7.0
            loaded.Plan.slowdown_pct)

let test_load_result_bad_hist_arity () =
  (* Regression: histogram lines whose weight vector is shorter than the
     frequency grid used to be accepted, leaving partially-filled
     histograms. Any arity other than Freq.num_steps is now fatal. *)
  saved_two_phase (fun plan path ->
      map_plan_lines path ~f:(fun l ->
          if l = "end" then "hist 0 0 1.0,2.0\nend" else l);
      match Mcd_core.Plan_io.load_result ~path ~tree:plan.Plan.tree with
      | Ok _ -> Alcotest.fail "short histogram line accepted"
      | Error errors ->
          Alcotest.(check bool) "malformed-line diagnostic" true
            (List.exists
               (function RError.Malformed_line _ -> true | _ -> false)
               errors))

let test_load_result_missing_file () =
  let plan, _ = analyze_two_phase () in
  match
    Mcd_core.Plan_io.load_result ~path:"/nonexistent/dir/plan.txt"
      ~tree:plan.Plan.tree
  with
  | Ok _ -> Alcotest.fail "missing file loaded"
  | Error errors ->
      Alcotest.(check int) "io exit code" 3 (RError.exit_code_of_list errors)

let test_plan_validate_clean_and_dirty () =
  let plan, _ = analyze_two_phase () in
  Alcotest.(check int) "fresh plan validates clean" 0
    (List.length (Mcd_core.Plan_io.validate plan));
  let bad = Array.make Domain.count 313 in
  Hashtbl.replace plan.Plan.node_settings 1 bad;
  Alcotest.(check bool) "off-grid setting reported" true
    (Mcd_core.Plan_io.validate plan <> [])

let test_call_tree_dot () =
  let plan, _ = analyze_two_phase () in
  let dot = Call_tree.to_dot plan.Plan.tree in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 50 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "long nodes shaded" true
    (let rec contains i =
       i + 8 <= String.length dot
       && (String.sub dot i 8 = "fillcolo" || contains (i + 1))
     in
     contains 0)

(* --- qcheck ----------------------------------------------------------- *)

let prop_threshold_choice_meets_budget =
  QCheck.Test.make ~name:"threshold choice meets its budget" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 8)
           (pair (int_range 0 (Freq.num_steps - 1)) (float_range 1.0 1000.0)))
        (float_range 0.5 30.0))
    (fun (bins, delta) ->
      let h = Histogram.create ~bins:Freq.num_steps in
      List.iter (fun (bin, weight) -> Histogram.add h ~bin ~weight) bins;
      let f = Threshold.choose h ~slowdown_pct:delta in
      Threshold.expected_slowdown h ~freq_mhz:f <= delta +. 1e-6)

let prop_refine_never_lowers =
  QCheck.Test.make ~name:"path-model refine never lowers a frequency"
    ~count:100
    QCheck.(
      pair
        (quad (int_range 0 15) (int_range 0 15) (int_range 0 15)
           (int_range 0 15))
        (pair (float_range 100.0 10_000_000.0) (float_range 1.0 20.0)))
    (fun ((a, b, c, d), (base, delta)) ->
      let s =
        [|
          Freq.of_index a; Freq.of_index b; Freq.of_index c; Freq.of_index d;
        |]
      in
      let pm =
        Path_model.add_segment Path_model.empty
          (segment ~base
             [ [| base /. 4.; base /. 4.; base /. 4.; base /. 4.; 0.0 |] ])
      in
      let refined = Path_model.refine pm s ~slowdown_pct:delta in
      Array.for_all2 (fun before after -> after >= before) s refined)

let prop_editor_reconfigs_balanced =
  QCheck.Test.make ~name:"editor reconfigurations balance over a full walk"
    ~count:10
    QCheck.(int_range 1 1000)
    (fun seed ->
      let prog = two_phase_program () in
      let plan, _ =
        Analyze.analyze ~program:prog
          ~train:{ P.input_name = "t"; scale = 1; divergence = 0.0; seed }
          ~context:Context.lf ~threshold_insts:1_500 ~profile_insts:60_000
          ~trace_insts:30_000 ()
      in
      let edited = Editor.edit plan in
      let walker =
        Walker.create prog
          ~input:{ P.input_name = "t"; scale = 1; divergence = 0.0; seed }
      in
      let writes = ref [] in
      let rec go () =
        match Walker.next walker with
        | None -> ()
        | Some (Walker.Inst _) -> go ()
        | Some (Walker.Marker m) ->
            (match
               (edited.Editor.controller.Controller.on_marker m ~now:0)
                 .Controller.set
             with
            | Some s -> writes := Array.copy s :: !writes
            | None -> ());
            go ()
      in
      go ();
      match !writes with
      | [] -> true
      | ws ->
          (* reconfigurations pair up: the final write restores the
             full-speed ambient the program started with *)
          List.length ws mod 2 = 0
          && List.hd ws = Mcd_domains.Reconfig.full_speed ())

let prop_shaker_conserves_work =
  QCheck.Test.make ~name:"shaker conserves work across histograms" ~count:30
    QCheck.(pair (int_range 5 40) (int_range 0 5))
    (fun (n, gap) ->
      let dag = Dag.build (chain_events ~gap_cycles:gap n) in
      let r = Shaker.run dag in
      let total =
        Array.fold_left (fun acc h -> acc +. Histogram.total h) 0.0
          r.Shaker.histograms
      in
      let expected =
        Array.fold_left (fun acc d -> acc +. (d /. 1000.0)) 0.0 dag.Dag.dur
      in
      Float.abs (total -. expected) < 1e-3)

let prop_path_signatures_fused_exact =
  QCheck.Test.make ~name:"fused path DP equals per-probe walks bit for bit"
    ~count:40
    QCheck.(
      triple (int_range 1 60) (int_range 0 6)
        (make ~print:Domain.name (Gen.oneofl Domain.all)))
    (fun (n, gap, domain) ->
      path_signatures_exact
        (Dag.build (chain_events ~domain ~gap_cycles:gap n)))

let suite =
  [
    ("dag build counts", `Quick, test_dag_build_counts);
    ("dag empty", `Quick, test_dag_empty);
    ("dag duplicate slot rejected", `Quick, test_dag_duplicate_slot_rejected);
    ("dag slack nonnegative", `Quick, test_dag_slack_nonnegative);
    ("dag base path is makespan", `Quick, test_dag_base_path_is_makespan);
    ("dag signature senses domain", `Quick, test_dag_signature_senses_domain);
    ("dag path signature probes", `Quick, test_dag_path_signatures_probe_set);
    ("shaker no slack no stretch", `Quick, test_shaker_no_slack_no_stretch);
    ("shaker stretches slack", `Quick, test_shaker_slack_gets_stretched);
    ("shaker histogram bins", `Quick, test_shaker_histogram_bins_valid);
    ("shaker monotone in passes", `Quick, test_shaker_more_passes_more_stretch);
    ("shaker implied frequencies", `Quick, test_shaker_frequencies_of_durations);
    ("threshold empty -> floor", `Quick, test_threshold_empty_floor);
    ("threshold zero budget", `Quick, test_threshold_all_full_speed_zero_budget);
    ("threshold already slow", `Quick, test_threshold_all_slow_events);
    ("threshold budget math", `Quick, test_threshold_budget_math);
    ("threshold monotone", `Quick, test_threshold_monotone_in_budget);
    ("threshold rejects negative", `Quick, test_threshold_negative_budget_rejected);
    ("threshold setting per domain", `Quick, test_threshold_setting_of_histograms);
    ("path model estimate", `Quick, test_path_model_estimate);
    ("path model max of signatures", `Quick, test_path_model_max_over_signatures);
    ("path model refine", `Quick, test_path_model_refine_raises_frequencies);
    ("path model refine empty", `Quick, test_path_model_refine_empty_noop);
    ("path model union", `Quick, test_path_model_union);
    ("swing allowance math", `Quick, test_swing_allowance_math);
    ("analyze finds long nodes", `Quick, test_analyze_finds_long_nodes);
    ("analyze floors idle fp", `Quick, test_analyze_int_phase_scales_fp);
    ("plan with_slowdown monotone", `Quick, test_plan_with_slowdown_monotone);
    ("plan static points", `Quick, test_plan_static_points);
    ("plan static points L+F", `Quick, test_plan_static_points_no_paths);
    ("editor save/restore", `Quick, test_editor_static_save_restore);
    ("editor unknown path", `Quick, test_editor_paths_unknown_no_reconfig);
    ("analyze deterministic", `Quick, test_analyze_offline_equals_profile_when_same_input);
    ("oracle schedule shape", `Quick, test_oracle_schedule_shape);
    ("oracle budget monotone", `Quick, test_oracle_tighter_budget_higher_freqs);
    ("oracle policy playback", `Quick, test_oracle_policy_playback);
    ("plan_io roundtrip", `Quick, test_plan_io_roundtrip);
    ("plan_io fingerprint mismatch", `Quick, test_plan_io_fingerprint_mismatch);
    ("plan_io rejects garbage", `Quick, test_plan_io_rejects_garbage);
    ("load_result truncated file", `Quick, test_load_result_truncated_file);
    ("load_result flipped frequency", `Quick, test_load_result_flipped_frequency);
    ("load_result off-grid snapped", `Quick, test_load_result_off_grid_snapped);
    ( "load_result fingerprint mismatch",
      `Quick,
      test_load_result_fingerprint_mismatch );
    ( "load_result missing headers warn",
      `Quick,
      test_load_result_missing_headers_warn );
    ("load_result bad hist arity", `Quick, test_load_result_bad_hist_arity);
    ("load_result missing file", `Quick, test_load_result_missing_file);
    ("plan validate", `Quick, test_plan_validate_clean_and_dirty);
    ("call tree dot export", `Quick, test_call_tree_dot);
    qcheck prop_threshold_choice_meets_budget;
    qcheck prop_shaker_conserves_work;
    qcheck prop_path_signatures_fused_exact;
    qcheck prop_refine_never_lowers;
    qcheck prop_editor_reconfigs_balanced;
  ]
