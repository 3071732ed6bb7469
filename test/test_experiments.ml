(* Tests for the experiment harness: comparison math, caching, and the
   figure/table formatters (on a single small benchmark to stay fast). *)

module Runner = Mcd_experiments.Runner
module Headline = Mcd_experiments.Headline
module Context_sense = Mcd_experiments.Context_sense
module Sweep = Mcd_experiments.Sweep
module Tables = Mcd_experiments.Tables
module Tournament = Mcd_experiments.Tournament
module Policy = Mcd_control.Policy
module Policies = Mcd_control.Policies
module Suite = Mcd_workloads.Suite
module Workload = Mcd_workloads.Workload
module Context = Mcd_profiling.Context
module Metrics = Mcd_power.Metrics
module Freq = Mcd_domains.Freq
module Key = Mcd_cache.Key
module Store = Mcd_cache.Store
module Json = Mcd_obs.Json

let w () = Suite.by_name "adpcm decode"

let test_compare_runs () =
  let base = Runner.baseline (w ()) in
  let c = Runner.compare_runs ~baseline:base base in
  Alcotest.(check (float 1e-9)) "self degradation" 0.0 c.Runner.degradation_pct;
  Alcotest.(check (float 1e-9)) "self savings" 0.0 c.Runner.savings_pct;
  Alcotest.(check (float 1e-9)) "self ed" 0.0 c.Runner.ed_improvement_pct

let test_baseline_cached () =
  let a = Runner.baseline (w ()) in
  let b = Runner.baseline (w ()) in
  Alcotest.(check bool) "same object" true (a == b)

let test_single_clock_cached_per_freq () =
  let a = Runner.single_clock (w ()) ~mhz:1000 in
  let b = Runner.single_clock (w ()) ~mhz:500 in
  Alcotest.(check bool) "distinct runs" true (a != b);
  Alcotest.(check bool) "slower at 500" true
    (b.Metrics.runtime_ps > a.Metrics.runtime_ps)

let test_profile_run_produces_savings () =
  let base = Runner.baseline (w ()) in
  let pr = Runner.profile_run (w ()) ~context:Context.lf ~train:`Train in
  let c = Runner.compare_runs ~baseline:base pr.Runner.run in
  Alcotest.(check bool) "saves energy" true (c.Runner.savings_pct > 2.0);
  Alcotest.(check bool) "bounded degradation" true
    (c.Runner.degradation_pct < 20.0);
  Alcotest.(check bool) "reconfigured" true
    (pr.Runner.run.Metrics.reconfigurations > 0)

let test_global_dvs_targets_runtime () =
  let base = Runner.baseline (w ()) in
  let target = base.Metrics.runtime_ps * 105 / 100 in
  let run, mhz = Runner.global_dvs_run (w ()) ~target_runtime_ps:target in
  Alcotest.(check bool) "legal frequency" true
    (mhz >= Freq.fmin_mhz && mhz <= Freq.fmax_mhz);
  Alcotest.(check bool) "within target" true
    (run.Metrics.runtime_ps <= target)

(* Regression for the global-DVS frequency walk: the old loop stepped
   upward from the estimate until the target was met but never walked
   back down, so an overshooting first estimate (mcf's low IPC inflates
   cycles/instruction at full speed) returned a faster frequency than
   needed. The contract is the *slowest* step that still meets the
   target. *)
let test_global_dvs_picks_slowest_meeting () =
  let mcf = Suite.by_name "mcf" in
  let at_500 = Runner.single_clock mcf ~mhz:500 in
  let target = at_500.Metrics.runtime_ps in
  let run, mhz = Runner.global_dvs_run mcf ~target_runtime_ps:target in
  Alcotest.(check int) "slowest meeting step" 500 mhz;
  Alcotest.(check bool) "meets target" true (run.Metrics.runtime_ps <= target);
  let below = Runner.single_clock mcf ~mhz:(mhz - Freq.step_mhz) in
  Alcotest.(check bool) "next step down misses" true
    (below.Metrics.runtime_ps > target)

(* A plan saved from plan_for must load back warning-free under either
   training selector: load_plan shares plan_for's window/tree
   derivation, so fingerprints and node ids line up exactly. *)
let test_load_plan_roundtrip_both_trains () =
  let module Plan_io = Mcd_core.Plan_io in
  List.iter
    (fun train ->
      let plan = Runner.plan_for (w ()) ~context:Context.lf ~train in
      let path = Filename.temp_file "mcd-plan" ".plan" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Plan_io.save plan ~path;
          match Runner.load_plan ~train (w ()) ~context:Context.lf ~path with
          | Error errs ->
              Alcotest.failf "load_plan rejected its own save: %s"
                (String.concat "; "
                   (List.map Mcd_robust.Error.to_string errs))
          | Ok loaded ->
              Alcotest.(check int) "no warnings" 0
                (List.length loaded.Plan_io.warnings);
              Alcotest.(check string) "plan round-trips byte-identically"
                (Plan_io.to_string plan)
                (Plan_io.to_string loaded.Plan_io.plan)))
    [ `Train; `Reference ]

(* The array-based sweep transpose must agree bit-for-bit with the
   per-column averages it replaced: a two-workload curve is exactly the
   point-wise mean of the two single-workload curves. *)
let test_sweep_transpose_matches_columns () =
  let w1 = Suite.by_name "adpcm decode" in
  let w2 = Suite.by_name "adpcm encode" in
  let deltas = [ 2.0; 14.0 ] in
  let combined = Sweep.profile_curve ~workloads:[ w1; w2 ] ~deltas () in
  let c1 = Sweep.profile_curve ~workloads:[ w1 ] ~deltas () in
  let c2 = Sweep.profile_curve ~workloads:[ w2 ] ~deltas () in
  Alcotest.(check int) "point count" (List.length deltas)
    (List.length combined);
  List.iteri
    (fun i p ->
      let p1 = List.nth c1 i and p2 = List.nth c2 i in
      let mean f = Mcd_util.Stats.mean [ f p1; f p2 ] in
      Alcotest.(check (float 0.0)) "slowdown" (mean (fun p -> p.Sweep.slowdown))
        p.Sweep.slowdown;
      Alcotest.(check (float 0.0)) "savings" (mean (fun p -> p.Sweep.savings))
        p.Sweep.savings;
      Alcotest.(check (float 0.0)) "ed" (mean (fun p -> p.Sweep.ed)) p.Sweep.ed)
    combined

let test_headline_row_sane () =
  let rows = Headline.rows ~workloads:[ w () ] () in
  match rows with
  | [ row ] ->
      Alcotest.(check bool) "profile close to offline" true
        (Float.abs
           (row.Headline.profile.Runner.savings_pct
           -. row.Headline.offline.Runner.savings_pct)
        < 10.0);
      let s = Headline.fig4 rows in
      Alcotest.(check bool) "fig4 mentions benchmark" true
        (Helpers.contains ~needle:"adpcm decode" s);
      Alcotest.(check bool) "fig5 renders" true
        (String.length (Headline.fig5 rows) > 0);
      Alcotest.(check bool) "fig6 renders" true
        (String.length (Headline.fig6 rows) > 0)
  | _ -> Alcotest.fail "expected one row"

let test_context_rows_and_tables () =
  let rows =
    Context_sense.rows ~workloads:[ w () ]
      ~contexts:[ Context.lfcp; Context.lf ] ()
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "static instr >= reconfig" true
        (r.Context_sense.static_instr >= r.Context_sense.static_reconfig);
      Alcotest.(check bool) "overhead bounded" true
        (r.Context_sense.overhead_pct >= 0.0
        && r.Context_sense.overhead_pct < 50.0))
    rows;
  let t4 = Context_sense.table4 rows in
  Alcotest.(check bool) "table4 renders" true
    (Helpers.contains ~needle:"Table 4" t4);
  let f12 = Context_sense.fig12 rows in
  Alcotest.(check bool) "fig12 renders" true
    (Helpers.contains ~needle:"Figure 12" f12)

let test_lf_overhead_below_lfcp () =
  let rows =
    Context_sense.rows ~workloads:[ w () ]
      ~contexts:[ Context.lfcp; Context.lf ] ()
  in
  let find name =
    List.find (fun r -> r.Context_sense.context.Context.name = name) rows
  in
  let lfcp = find "L+F+C+P" and lf = find "L+F" in
  Alcotest.(check bool) "L+F cheaper than L+F+C+P" true
    (lf.Context_sense.overhead_pct <= lfcp.Context_sense.overhead_pct)

let test_sweep_monotone_savings () =
  let points =
    Sweep.profile_curve ~workloads:[ w () ] ~deltas:[ 2.0; 14.0 ] ()
  in
  match points with
  | [ tight; loose ] ->
      Alcotest.(check bool) "looser budget saves at least as much" true
        (loose.Sweep.savings >= tight.Sweep.savings -. 0.5)
  | _ -> Alcotest.fail "expected two points"

(* Golden cycle-exactness: every constant below was captured from the
   list-based simulator before the array-queue rewrite. The refactor
   contract is bit-identical simulation, so any drift — a single cycle,
   sync penalty, or picojoule — fails this test. Energies are compared
   with zero tolerance on purpose: the event order inside a cycle feeds
   the power model, so float identity is the real invariant. *)
let check_golden name (r : Metrics.run) ~runtime_ps ~energy_pj ~instructions
    ~cycles ~sync_crossings ~sync_penalties ~reconfigurations =
  Alcotest.(check int) (name ^ ": runtime_ps") runtime_ps r.Metrics.runtime_ps;
  Alcotest.(check (float 0.0)) (name ^ ": energy_pj") energy_pj
    r.Metrics.energy_pj;
  Alcotest.(check int) (name ^ ": instructions") instructions
    r.Metrics.instructions;
  Alcotest.(check int) (name ^ ": cycles_front") cycles r.Metrics.cycles_front;
  Alcotest.(check int) (name ^ ": sync_crossings") sync_crossings
    r.Metrics.sync_crossings;
  Alcotest.(check int) (name ^ ": sync_penalties") sync_penalties
    r.Metrics.sync_penalties;
  Alcotest.(check int) (name ^ ": reconfigurations") reconfigurations
    r.Metrics.reconfigurations

let test_golden_cycle_exact () =
  let adpcm = Suite.by_name "adpcm decode" in
  let gsm = Suite.by_name "gsm encode" in
  check_golden "adpcm baseline" (Runner.baseline adpcm)
    ~runtime_ps:150_198_724 ~energy_pj:634901.7799991403
    ~instructions:120_000 ~cycles:150_204 ~sync_crossings:292_143
    ~sync_penalties:171_883 ~reconfigurations:0;
  (* Recaptured after the attack/decay guard fix: the revert now
     restores the exact pre-decay frequency instead of overshooting it
     by attack_step - decay_step, which shifts the on-line trajectory. *)
  check_golden "adpcm online" (Runner.online_run adpcm)
    ~runtime_ps:168_114_178 ~energy_pj:557966.74518739036
    ~instructions:120_000 ~cycles:168_123 ~sync_crossings:292_142
    ~sync_penalties:159_676 ~reconfigurations:9;
  let adpcm_pr = Runner.profile_run adpcm ~context:Context.lf ~train:`Train in
  check_golden "adpcm profile L+F" adpcm_pr.Runner.run
    ~runtime_ps:159_474_437 ~energy_pj:547978.1986847776
    ~instructions:120_000 ~cycles:149_918 ~sync_crossings:292_142
    ~sync_penalties:170_865 ~reconfigurations:16;
  Alcotest.(check int) "adpcm profile L+F: instr_points" 16
    adpcm_pr.Runner.run.Metrics.instr_points;
  Alcotest.(check int) "adpcm profile L+F: instr_overhead_ps" 17_182
    adpcm_pr.Runner.run.Metrics.instr_overhead_ps;
  check_golden "gsm baseline" (Runner.baseline gsm)
    ~runtime_ps:319_951_932 ~energy_pj:1118708.7899937588
    ~instructions:160_000 ~cycles:319_965 ~sync_crossings:390_521
    ~sync_penalties:229_532 ~reconfigurations:0;
  let gsm_pr = Runner.profile_run gsm ~context:Context.lf ~train:`Train in
  check_golden "gsm profile L+F" gsm_pr.Runner.run
    ~runtime_ps:340_979_955 ~energy_pj:905049.84638683696
    ~instructions:160_000 ~cycles:300_411 ~sync_crossings:390_521
    ~sync_penalties:229_200 ~reconfigurations:18

(* Byte-level goldens of the analysis kernels (DAG build, shaker, path
   signatures) and of the trace hand-off that feeds them: oracle
   analyses of two reference windows (applu's opens with a 20k warm-up
   offset and ends in a partial interval) and three training plans
   (mpeg2 decode's L+F+C+P tree nests long nodes, so markers close its
   segments), pinned by the MD5 of their serialized forms. Any change to
   a kernel's float operations or their order moves these digests. *)
let test_golden_analysis_digests () =
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (name, digest) ->
      let w = Suite.by_name name in
      let oracle =
        Mcd_core.Oracle.analyze ~program:w.Workload.program
          ~input:w.Workload.reference
          ~trace_insts:(w.Workload.ref_offset + w.Workload.ref_window)
          ~config:Mcd_cpu.Config.alpha21264_like ()
      in
      Alcotest.(check string) (name ^ " oracle analysis") digest
        (md5 (Mcd_core.Oracle.encode_analysis oracle)))
    [
      ("adpcm decode", "b542c492777dfc8803a2083b03329442");
      ("applu", "00d1b6487e5584e49ea64ec727570e9c");
    ];
  List.iter
    (fun (name, context, digest) ->
      let plan = Runner.plan_for (Suite.by_name name) ~context ~train:`Train in
      Alcotest.(check string)
        (Printf.sprintf "%s %s plan" name context.Context.name)
        digest
        (md5 (Mcd_core.Plan_io.to_string plan)))
    [
      ("adpcm decode", Context.lf, "2bfd1758d124a3fe165a260635bece4f");
      ("applu", Context.lf, "19be8b461775befaf994cc8bad5daa17");
      ("mpeg2 decode", Context.lfcp, "398b7b93333994e4cfc28cc87496b44e");
    ]

(* Every frequency decision goes through Plan.decide and
   Plan.clamp_swings: pin the oracle's schedules and the re-thresholded
   plans away from the default delta (digests captured before the
   decision stages were shared). An oracle schedule renders as
   "interval_insts|" then its intervals joined by ';', each interval's
   domain frequencies joined by ','. At delta 7 [with_slowdown]
   reproduces the plan goldens above. *)
let test_golden_decision_digests () =
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (name, digests) ->
      let w = Suite.by_name name in
      let oracle =
        Mcd_core.Oracle.analyze ~program:w.Workload.program
          ~input:w.Workload.reference
          ~trace_insts:(w.Workload.ref_offset + w.Workload.ref_window)
          ~config:Mcd_cpu.Config.alpha21264_like ()
      in
      List.iter
        (fun (delta, digest) ->
          let s = Mcd_core.Oracle.schedule_of oracle ~slowdown_pct:delta in
          let settings =
            Array.to_list s.Mcd_core.Oracle.settings
            |> List.map (fun st ->
                   String.concat ","
                     (List.map string_of_int (Array.to_list st)))
            |> String.concat ";"
          in
          Alcotest.(check string)
            (Printf.sprintf "%s oracle schedule at %g%%" name delta)
            digest
            (md5
               (Printf.sprintf "%d|%s" s.Mcd_core.Oracle.interval_insts
                  settings)))
        digests)
    [
      ( "adpcm decode",
        [
          (2.0, "6870d51b14fc657a3377439e05ab1ec8");
          (7.0, "0ae4d822a97b7e4b0ff6842a82fe52a6");
          (14.0, "256da1d38805f15a555ecaffba61e54c");
        ] );
      ( "applu",
        [
          (2.0, "64bd0f2665c42b426b887fd329578ed3");
          (7.0, "a71b279022a1458dae73749054cb2d38");
          (14.0, "97377d0253259a3f1e6bcb47eeab1907");
        ] );
    ];
  List.iter
    (fun (name, context, digests) ->
      let plan = Runner.plan_for (Suite.by_name name) ~context ~train:`Train in
      List.iter
        (fun (delta, digest) ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s plan at %g%%" name context.Context.name
               delta)
            digest
            (md5
               (Mcd_core.Plan_io.to_string
                  (Mcd_core.Plan.with_slowdown plan ~slowdown_pct:delta))))
        digests)
    [
      ( "adpcm decode",
        Context.lf,
        [
          (2.0, "dcf55d3e00d06d739dc496b752a985e4");
          (7.0, "2bfd1758d124a3fe165a260635bece4f");
          (14.0, "1de65d93d5f06e14d800f80ec9946813");
        ] );
      ( "mpeg2 decode",
        Context.lfcp,
        [
          (2.0, "af1605340304e41b5c57a55e37468737");
          (7.0, "398b7b93333994e4cfc28cc87496b44e");
          (14.0, "bb8564ac29c6536ef08fd1489a8fc256");
        ] );
      ( "applu",
        Context.lf,
        [
          (2.0, "c113b313f1770a8a34326797ba68b262");
          (7.0, "19be8b461775befaf994cc8bad5daa17");
          (14.0, "6664890426aafe01dcf6237fa087d4ec");
        ] );
    ]

(* The parallel runner must be invisible in the output: running the same
   experiment sequentially and with four domains has to produce
   byte-identical tables (order-preserving map + deterministic
   simulation; per-domain memo tables only affect speed). *)
let test_parallel_runs_deterministic () =
  let workloads = [ Suite.by_name "adpcm decode"; Suite.by_name "adpcm encode" ] in
  let render () =
    let rows = Headline.rows ~workloads () in
    Headline.fig4 rows ^ Headline.fig5 rows
    ^ Tables.table3 ~workloads ()
  in
  let saved = Runner.get_jobs () in
  Fun.protect
    ~finally:(fun () -> Runner.set_jobs saved)
    (fun () ->
      Runner.set_jobs 1;
      let seq = render () in
      Runner.set_jobs 4;
      let par = render () in
      Alcotest.(check string) "jobs=4 matches sequential" seq par)

let test_tables_render () =
  let t1 = Tables.table1 () in
  Alcotest.(check bool) "table1" true
    (Helpers.contains ~needle:"Reorder buffer" t1);
  let t2 = Tables.table2 () in
  Alcotest.(check bool) "table2 lists suite" true
    (Helpers.contains ~needle:"mcf" t2);
  let t3 = Tables.table3 ~workloads:[ w () ] () in
  Alcotest.(check bool) "table3" true
    (Helpers.contains ~needle:"cov long" t3)

(* --- the policy tournament -------------------------------------------- *)

(* Every registered policy must key distinctly on one workload —
   including the two attack/decay parameterisations, which share a
   cache-key [name] and differ only in [params]. This is the structural
   fix for the policy-blind cache keys: aliasing here would let one
   policy serve another's numbers forever. *)
let test_policy_keys_pairwise_distinct () =
  let keys =
    List.map
      (fun p -> (p.Policy.label, Key.canonical (Runner.policy_key p (w ()))))
      (Policies.all ())
  in
  List.iteri
    (fun i (la, ka) ->
      List.iteri
        (fun j (lb, kb) ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "%s and %s key apart" la lb)
              true (ka <> kb))
        keys)
    keys

(* Warm-run the tournament against a fresh store: the cold pass must
   write exactly one object per (policy, workload) plus the shared
   baseline, the plan behind profile L+F and the oracle analysis behind
   the off-line run, with zero hits (nothing aliased, nothing served
   across policies), and the warm pass must serve exactly one hit per
   run with zero new stores while reproducing the report
   byte-identically. *)
let test_tournament_warm_rerun_isolated () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcd-tournament-test.%d" (Unix.getpid ()))
  in
  Helpers.rm_rf dir;
  let store = Store.create ~dir in
  Fun.protect
    ~finally:(fun () ->
      Store.set_default None;
      Helpers.rm_rf dir)
    (fun () ->
      Store.set_default (Some store);
      Runner.clear_caches ();
      let contenders = Runner.contenders (w ()) in
      let cold = Tournament.run ~workloads:[ w () ] () in
      let s0 = Store.stats store in
      Alcotest.(check int)
        "cold pass: one object per policy + baseline + plan + oracle"
        (List.length contenders + 3)
        s0.Store.stores;
      Alcotest.(check int) "cold pass: zero cross-policy hits" 0 s0.Store.hits;
      Runner.clear_caches ();
      let warm = Tournament.run ~workloads:[ w () ] () in
      let s1 = Store.stats store in
      Alcotest.(check int) "warm pass: every run served from disk"
        (List.length contenders + 1)
        (s1.Store.hits - s0.Store.hits);
      Alcotest.(check int) "warm pass: no new objects" s0.Store.stores
        s1.Store.stores;
      Alcotest.(check string) "report byte-identical"
        (Tournament.render cold) (Tournament.render warm);
      Alcotest.(check string) "JSON byte-identical"
        (Json.to_string (Tournament.to_json cold))
        (Json.to_string (Tournament.to_json warm)))

let test_tournament_report_shape () =
  let t = Tournament.run ~workloads:[ w () ] () in
  let contenders = Runner.contenders (w ()) in
  Alcotest.(check int) "one entry per contender"
    (List.length contenders)
    (List.length t.Tournament.entries);
  List.iteri
    (fun i e -> Alcotest.(check int) "ranks count 1..N" (i + 1) e.Tournament.rank)
    t.Tournament.entries;
  let eds =
    List.map
      (fun e -> e.Tournament.mean.Runner.ed_improvement_pct)
      t.Tournament.entries
  in
  Alcotest.(check bool) "ranked by descending mean ED" true
    (List.sort (fun a b -> compare b a) eds = eds);
  Alcotest.(check bool) "some entry is Pareto-optimal" true
    (List.exists (fun e -> e.Tournament.pareto) t.Tournament.entries);
  let rendered = Tournament.render t in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.Policy.label ^ " in table")
        true
        (Helpers.contains ~needle:p.Policy.label rendered))
    contenders;
  (* the JSON writer's output must parse back with the same shape *)
  match Json.of_string (Json.to_string (Tournament.to_json t)) with
  | Error e -> Alcotest.failf "tournament JSON does not parse: %s" e
  | Ok j ->
      let entries =
        Option.bind (Json.member "entries" j) Json.to_list_opt
        |> Option.value ~default:[]
      in
      Alcotest.(check int) "JSON entries" (List.length contenders)
        (List.length entries)

(* Table 4's dynamic point counts, (reconfiguration, instrumentation),
   in exact mode. applu runs a 20k-instruction warm-up whose points
   count too: its run's [Metrics.reconfigurations] reads 28, so these
   cannot be derived from the metrics. *)
let test_table4_points_pinned () =
  let mode = Runner.get_sim_mode () in
  Fun.protect ~finally:(fun () -> Runner.set_sim_mode mode) @@ fun () ->
  Runner.set_sim_mode Runner.Exact;
  List.iter
    (fun (wname, ctx, want) ->
      let pr =
        Runner.profile_run (Suite.by_name wname)
          ~context:(Context.of_name ctx) ~train:`Train
      in
      let c = pr.Runner.counters in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s %s" wname ctx)
        want
        (c.Mcd_core.Editor.reconfig_execs, c.Mcd_core.Editor.instr_execs))
    [
      ("adpcm decode", "L+F+C+P", (16, 16));
      ("adpcm decode", "L+F+P", (16, 16));
      ("adpcm decode", "F+C+P", (15, 1));
      ("adpcm decode", "F+P", (15, 1));
      ("adpcm decode", "L+F", (16, 0));
      ("adpcm decode", "F", (15, 0));
      ("applu", "L+F+C+P", (32, 33));
    ]

let suite =
  [
    ("compare runs", `Quick, test_compare_runs);
    ("baseline cached", `Quick, test_baseline_cached);
    ("single clock cached per freq", `Quick, test_single_clock_cached_per_freq);
    ("profile run saves energy", `Slow, test_profile_run_produces_savings);
    ("global dvs targets runtime", `Slow, test_global_dvs_targets_runtime);
    ( "global dvs picks slowest meeting step",
      `Slow,
      test_global_dvs_picks_slowest_meeting );
    ( "load_plan round-trips both train selectors",
      `Slow,
      test_load_plan_roundtrip_both_trains );
    ( "sweep transpose matches per-column averages",
      `Slow,
      test_sweep_transpose_matches_columns );
    ("headline row sane", `Slow, test_headline_row_sane);
    ("context rows and tables", `Slow, test_context_rows_and_tables);
    ("L+F overhead below L+F+C+P", `Slow, test_lf_overhead_below_lfcp);
    ("sweep monotone savings", `Slow, test_sweep_monotone_savings);
    ("tables render", `Quick, test_tables_render);
    ("golden cycle-exact metrics", `Slow, test_golden_cycle_exact);
    ("golden analysis digests", `Slow, test_golden_analysis_digests);
    ("parallel runs deterministic", `Slow, test_parallel_runs_deterministic);
    ( "policy keys pairwise distinct",
      `Quick,
      test_policy_keys_pairwise_distinct );
    ( "tournament warm rerun isolated",
      `Slow,
      test_tournament_warm_rerun_isolated );
    ("tournament report shape", `Slow, test_tournament_report_shape);
    ("table 4 dynamic points pinned", `Slow, test_table4_points_pinned);
    ("golden decision digests", `Slow, test_golden_decision_digests);
  ]
