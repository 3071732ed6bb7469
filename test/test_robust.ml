(* Tests for the robustness subsystem: typed diagnostics, validation,
   deterministic fault injection, and the degradation guard. *)

module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq
module Reconfig = Mcd_domains.Reconfig
module Controller = Mcd_cpu.Controller
module Walker = Mcd_isa.Walker
module Rng = Mcd_util.Rng
module Error = Mcd_robust.Error
module Validate = Mcd_robust.Validate
module Inject = Mcd_robust.Inject
module Degrade = Mcd_robust.Degrade

(* --- Error ------------------------------------------------------------ *)

let test_error_exit_codes () =
  let io = Error.Io_error { path = "p"; message = "m" } in
  let validation = Error.Bad_slowdown { value = Float.nan } in
  Alcotest.(check int) "io" 3 (Error.exit_code io);
  Alcotest.(check int) "validation" 2 (Error.exit_code validation);
  Alcotest.(check int) "empty" 0 (Error.exit_code_of_list []);
  Alcotest.(check int) "io dominates" 3
    (Error.exit_code_of_list [ validation; io ]);
  Alcotest.(check int) "validation only" 2
    (Error.exit_code_of_list [ validation ])

let test_error_messages_name_the_site () =
  let e =
    Error.Illegal_frequency
      { where = "plan:12"; requested_mhz = 313; snapped_mhz = 300 }
  in
  let s = Error.to_string e in
  Alcotest.(check bool) "names where" true
    (Helpers.contains ~needle:"plan:12" s);
  Alcotest.(check bool) "names value" true (Helpers.contains ~needle:"313" s)

(* --- Validate --------------------------------------------------------- *)

let test_validate_setting_arity () =
  match Validate.setting ~where:"t" [| 1000; 1000 |] with
  | Result.Error (Error.Bad_setting_arity { expected; found; _ }) ->
      Alcotest.(check int) "expected" Domain.count expected;
      Alcotest.(check int) "found" 2 found
  | _ -> Alcotest.fail "expected arity error"

let test_validate_setting_out_of_range_is_fatal () =
  let s = Array.make Domain.count Freq.fmax_mhz in
  s.(1) <- 999_999;
  (match Validate.setting ~where:"t" s with
  | Result.Error (Error.Illegal_frequency { requested_mhz; _ }) ->
      Alcotest.(check int) "offender" 999_999 requested_mhz
  | _ -> Alcotest.fail "expected fatal frequency error");
  s.(1) <- -17;
  match Validate.setting ~where:"t" s with
  | Result.Error (Error.Illegal_frequency _) -> ()
  | _ -> Alcotest.fail "expected fatal frequency error"

let test_validate_setting_snaps_off_grid () =
  let s = Array.make Domain.count Freq.fmax_mhz in
  s.(0) <- 313;
  match Validate.setting ~where:"t" s with
  | Result.Ok (repaired, [ Error.Illegal_frequency { snapped_mhz; _ } ]) ->
      Alcotest.(check bool) "on grid" true (Freq.is_step repaired.(0));
      Alcotest.(check int) "snapped" snapped_mhz repaired.(0)
  | _ -> Alcotest.fail "expected snap with one warning"

let test_validate_weight_and_slowdown () =
  (match Validate.weight ~node:1 ~domain:0 ~bin:0 Float.nan with
  | 0.0, Some (Error.Bad_histogram_weight _) -> ()
  | _ -> Alcotest.fail "NaN weight not repaired");
  (match Validate.weight ~node:1 ~domain:0 ~bin:0 (-2.0) with
  | 0.0, Some _ -> ()
  | _ -> Alcotest.fail "negative weight not repaired");
  (match Validate.weight ~node:1 ~domain:0 ~bin:0 3.5 with
  | 3.5, None -> ()
  | _ -> Alcotest.fail "good weight mangled");
  match Validate.slowdown_pct (-1.0) with
  | 0.0, Some (Error.Bad_slowdown _) -> ()
  | _ -> Alcotest.fail "negative slowdown not repaired"

(* --- Inject ----------------------------------------------------------- *)

let test_inject_names_roundtrip () =
  Alcotest.(check int) "eight fault classes" 8 (List.length Inject.all);
  List.iter
    (fun f ->
      match Inject.of_name (Inject.name f) with
      | Some f' -> Alcotest.(check bool) "roundtrip" true (f = f')
      | None -> Alcotest.fail ("of_name failed for " ^ Inject.name f))
    Inject.all;
  (* the serve-layer fault classes live outside [all] (the sweep grid)
     but still name-roundtrip for the chaos harness and CLI *)
  Alcotest.(check int) "four serve fault classes" 4
    (List.length Inject.serve_all);
  List.iter
    (fun f ->
      match Inject.of_name (Inject.name f) with
      | Some f' -> Alcotest.(check bool) "serve roundtrip" true (f = f')
      | None -> Alcotest.fail ("of_name failed for " ^ Inject.name f))
    Inject.serve_all;
  Alcotest.(check bool) "unknown name" true (Inject.of_name "gremlin" = None)

let sample_plan_text =
  "mcd-dvfs-plan 1\ncontext L+F\nslowdown 0x1.cp2\ntree 0123456789abcdef\n\
   node 1 1000,800,650,1000\nnode 2 700,1000,1000,550\n\
   unit func:3 1000,1000,1000,1000\n\
   hist 1 0 0x1p0,0x0p0,0x1p1\nend\n"

let with_temp_plan f =
  let path = Filename.temp_file "mcd_robust_test" ".plan" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc sample_plan_text;
      close_out oc;
      f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_inject_corrupts_and_is_deterministic () =
  List.iter
    (fun fault ->
      match fault with
      | Inject.Runtime _ | Inject.Serve _ -> ()
      | Inject.File ff ->
          let once seed =
            with_temp_plan (fun path ->
                let rng = Rng.split (Rng.create seed) ~label:"t" in
                Inject.corrupt_file ff ~rng ~path;
                read_file path)
          in
          let a = once 5 and b = once 5 in
          Alcotest.(check bool)
            (Inject.name fault ^ " actually corrupts")
            true (a <> sample_plan_text);
          Alcotest.(check string) (Inject.name fault ^ " deterministic") a b)
    Inject.all

let test_inject_dvfs_faults () =
  let rng = Rng.split (Rng.create 9) ~label:"t" in
  (match Inject.dvfs_faults Inject.Stuck_domain ~rng with
  | [ Mcd_domains.Dvfs.Stuck_at (_, mhz) ] ->
      Alcotest.(check bool) "stuck at a legal step" true (Freq.is_step mhz)
  | _ -> Alcotest.fail "expected one stuck-at fault");
  (match Inject.dvfs_faults Inject.Frozen_slew ~rng with
  | [ Mcd_domains.Dvfs.Frozen_slew _ ] -> ()
  | _ -> Alcotest.fail "expected one frozen-slew fault");
  Alcotest.(check bool) "lost writes is a controller fault" true
    (Inject.dvfs_faults Inject.Lost_writes ~rng = [])

let test_inject_lost_writes_drops_some () =
  let emitted = ref 0 in
  let inner =
    {
      Controller.name = "always-write";
      on_marker =
        (fun _ ~now:_ ->
          incr emitted;
          {
            Controller.stall_cycles = 0;
            table_reads = 0;
            set = Some (Reconfig.full_speed ());
          });
      on_sample = (fun _ ~now:_ -> None);
      sample_interval_cycles = 0;
    }
  in
  let rng = Rng.split (Rng.create 3) ~label:"t" in
  let lossy = Inject.harness Inject.Lost_writes ~rng inner in
  let delivered = ref 0 in
  for _ = 1 to 200 do
    let r =
      lossy.Controller.on_marker (Walker.Enter_func { fid = 0; site_id = None })
        ~now:0
    in
    if r.Controller.set <> None then incr delivered
  done;
  Alcotest.(check int) "policy always writes" 200 !emitted;
  Alcotest.(check bool) "some writes dropped" true (!delivered < 200);
  Alcotest.(check bool) "some writes survive" true (!delivered > 0)

(* --- Degrade ---------------------------------------------------------- *)

let marker = Walker.Enter_func { fid = 0; site_id = None }

let constant_controller set =
  {
    Controller.name = "constant";
    on_marker =
      (fun _ ~now:_ -> { Controller.stall_cycles = 0; table_reads = 0; set });
    on_sample = (fun _ ~now:_ -> None);
    sample_interval_cycles = 0;
  }

let test_guard_clamps_off_grid () =
  let s = Array.make Domain.count Freq.fmax_mhz in
  s.(2) <- 313;
  let c = Degrade.counters () in
  let guarded = Degrade.guard ~counters:c (constant_controller (Some s)) in
  let r = guarded.Controller.on_marker marker ~now:0 in
  (match r.Controller.set with
  | Some repaired ->
      Array.iter
        (fun mhz ->
          Alcotest.(check bool) "on grid" true (Freq.is_step mhz))
        repaired
  | None -> Alcotest.fail "clamped setting should still be delivered");
  Alcotest.(check int) "clamp counted" 1 c.Degrade.clamped

let test_guard_suppresses_corrupt () =
  let s = Array.make Domain.count Freq.fmax_mhz in
  s.(0) <- 999_999;
  let c = Degrade.counters () in
  let guarded = Degrade.guard ~counters:c (constant_controller (Some s)) in
  let r = guarded.Controller.on_marker marker ~now:0 in
  Alcotest.(check bool) "corrupt setting suppressed" true
    (r.Controller.set = None);
  Alcotest.(check int) "suppression counted" 1 c.Degrade.suppressed

let test_guard_swallows_exceptions () =
  let raising =
    {
      Controller.name = "raising";
      on_marker = (fun _ ~now:_ -> failwith "boom");
      on_sample = (fun _ ~now:_ -> None);
      sample_interval_cycles = 0;
    }
  in
  let c = Degrade.counters () in
  let guarded = Degrade.guard ~counters:c raising in
  let r = guarded.Controller.on_marker marker ~now:0 in
  (match r.Controller.set with
  | Some s ->
      Alcotest.(check bool) "fallback is full speed" true
        (Reconfig.equal s (Reconfig.full_speed ()))
  | None -> Alcotest.fail "expected fallback write");
  Alcotest.(check bool) "fell back" true (Degrade.fallen_back c);
  Alcotest.(check int) "fault counted" 1 c.Degrade.controller_faults;
  (* degraded: the policy is disabled, not consulted again *)
  let r2 = guarded.Controller.on_marker marker ~now:1 in
  Alcotest.(check bool) "policy disabled" true (r2.Controller.set = None);
  Alcotest.(check int) "no further faults" 1 c.Degrade.controller_faults

let sample_admitting target =
  {
    Controller.elapsed_cycles = Degrade.default_watchdog_interval_cycles;
    avg_occupancy = Array.make Domain.count 0.0;
    retired = 1_000;
    total_retired = 1_000;
    l1d_misses = 0;
    l2_misses = 0;
    target_mhz = Array.copy target;
    current_mhz = Array.map float_of_int target;
  }

let test_guard_watchdog_reissues_then_falls_back () =
  let want = Array.make Domain.count 500 in
  let c = Degrade.counters () in
  let guarded = Degrade.guard ~counters:c (constant_controller (Some want)) in
  (* the policy commands 500 MHz everywhere... *)
  (match (guarded.Controller.on_marker marker ~now:0).Controller.set with
  | Some _ -> ()
  | None -> Alcotest.fail "expected initial write");
  (* ...but the hardware keeps admitting full speed (write lost) *)
  let deaf = Array.make Domain.count Freq.fmax_mhz in
  for i = 1 to Degrade.default_max_reissues do
    match guarded.Controller.on_sample (sample_admitting deaf) ~now:i with
    | Some s ->
        Alcotest.(check bool)
          (Printf.sprintf "reissue %d repeats the command" i)
          true
          (Array.for_all2 ( = ) s want)
    | None -> Alcotest.fail "expected a reissue"
  done;
  Alcotest.(check int) "reissues counted" Degrade.default_max_reissues
    c.Degrade.reissues;
  (* still deaf: give up and fall back to full speed *)
  (match
     guarded.Controller.on_sample (sample_admitting deaf)
       ~now:(Degrade.default_max_reissues + 1)
   with
  | Some s ->
      Alcotest.(check bool) "fallback is full speed" true
        (Reconfig.equal s (Reconfig.full_speed ()))
  | None -> Alcotest.fail "expected fallback");
  Alcotest.(check bool) "fell back" true (Degrade.fallen_back c)

let test_guard_watchdog_accepts_honest_hardware () =
  let want = Array.make Domain.count 500 in
  let c = Degrade.counters () in
  let guarded = Degrade.guard ~counters:c (constant_controller (Some want)) in
  ignore (guarded.Controller.on_marker marker ~now:0);
  (* hardware admits exactly what was commanded: no interventions *)
  for i = 1 to 10 do
    match guarded.Controller.on_sample (sample_admitting want) ~now:i with
    | None -> ()
    | Some _ -> Alcotest.fail "watchdog intervened on honest hardware"
  done;
  Alcotest.(check int) "no interventions" 0 (Degrade.interventions c)

let test_guard_watchdog_detects_frozen_slew () =
  let want = Array.make Domain.count 500 in
  let c = Degrade.counters () in
  let guarded = Degrade.guard ~counters:c (constant_controller (Some want)) in
  ignore (guarded.Controller.on_marker marker ~now:0);
  (* hardware admits the target but the operating point never moves *)
  let frozen =
    {
      (sample_admitting want) with
      Controller.current_mhz =
        Array.make Domain.count (float_of_int Freq.fmax_mhz);
    }
  in
  let fell = ref false in
  for i = 1 to Degrade.stall_streak_limit + 1 do
    match guarded.Controller.on_sample frozen ~now:i with
    | Some s when Reconfig.equal s (Reconfig.full_speed ()) -> fell := true
    | _ -> ()
  done;
  Alcotest.(check bool) "frozen slew triggers fallback" true !fell;
  Alcotest.(check bool) "fallback counted" true (Degrade.fallen_back c)

(* --- end-to-end: fallback stays within the synchronous bound ----------- *)

let test_fallback_run_within_sync_bound () =
  let module Runner = Mcd_experiments.Runner in
  let module Metrics = Mcd_power.Metrics in
  let module Suite = Mcd_workloads.Suite in
  let module Workload = Mcd_workloads.Workload in
  let w = Suite.by_name "adpcm decode" in
  let baseline = Runner.baseline w in
  let sync_floor = Runner.single_clock w ~mhz:Freq.fmin_mhz in
  let raising =
    {
      Controller.name = "raising";
      on_marker = (fun _ ~now:_ -> failwith "corrupt policy");
      on_sample = (fun _ ~now:_ -> None);
      sample_interval_cycles = 0;
    }
  in
  let c = Degrade.counters () in
  let run =
    Mcd_cpu.Pipeline.run
      ~controller:(Degrade.guard ~counters:c raising)
      ~config:Mcd_cpu.Config.alpha21264_like
      ~warmup_insts:w.Workload.ref_offset ~program:w.Workload.program
      ~input:w.Workload.reference ~max_insts:w.Workload.ref_window ()
  in
  Alcotest.(check bool) "guard intervened" true (Degrade.fallen_back c);
  let slow = Metrics.perf_degradation_pct ~baseline run in
  let bound = Metrics.perf_degradation_pct ~baseline sync_floor in
  Alcotest.(check bool) "within the synchronous-machine bound" true
    (slow <= bound +. 0.5);
  (* the fallback is full speed, so in fact it should be near-baseline *)
  Alcotest.(check bool) "near baseline" true (Float.abs slow < 5.0)

(* --- the campaign itself ---------------------------------------------- *)

let test_campaign_small () =
  let module Robustness = Mcd_experiments.Robustness in
  let module Suite = Mcd_workloads.Suite in
  let workloads = [ Suite.by_name "adpcm decode" ] in
  let report = Robustness.run ~workloads ~seed:11 () in
  Alcotest.(check int) "one cell per fault class"
    (List.length Inject.all)
    (List.length report.Robustness.outcomes);
  Alcotest.(check int) "no crashes" 0 report.Robustness.crashes;
  Alcotest.(check int) "no bound violations" 0
    report.Robustness.bound_violations;
  Alcotest.(check bool) "clean" true (Robustness.clean report);
  (* deterministic: the same seed reproduces the same outcomes *)
  let report' = Robustness.run ~workloads ~seed:11 () in
  List.iter2
    (fun (a : Robustness.outcome) b ->
      Alcotest.(check string) "same fault" a.Robustness.fault
        b.Robustness.fault;
      Alcotest.(check bool) "same recovery" true
        (a.Robustness.recovery = b.Robustness.recovery);
      Alcotest.(check (float 1e-9)) "same slowdown" a.Robustness.slowdown_pct
        b.Robustness.slowdown_pct)
    report.Robustness.outcomes report'.Robustness.outcomes

let suite =
  [
    ("error exit codes", `Quick, test_error_exit_codes);
    ("error messages name the site", `Quick, test_error_messages_name_the_site);
    ("validate setting arity", `Quick, test_validate_setting_arity);
    ( "validate out-of-range is fatal",
      `Quick,
      test_validate_setting_out_of_range_is_fatal );
    ("validate snaps off-grid", `Quick, test_validate_setting_snaps_off_grid);
    ("validate weight and slowdown", `Quick, test_validate_weight_and_slowdown);
    ("inject names roundtrip", `Quick, test_inject_names_roundtrip);
    ( "inject corrupts deterministically",
      `Quick,
      test_inject_corrupts_and_is_deterministic );
    ("inject dvfs faults", `Quick, test_inject_dvfs_faults);
    ("inject lost writes drops some", `Quick, test_inject_lost_writes_drops_some);
    ("guard clamps off-grid", `Quick, test_guard_clamps_off_grid);
    ("guard suppresses corrupt", `Quick, test_guard_suppresses_corrupt);
    ("guard swallows exceptions", `Quick, test_guard_swallows_exceptions);
    ( "guard watchdog reissues then falls back",
      `Quick,
      test_guard_watchdog_reissues_then_falls_back );
    ( "guard watchdog accepts honest hardware",
      `Quick,
      test_guard_watchdog_accepts_honest_hardware );
    ( "guard watchdog detects frozen slew",
      `Quick,
      test_guard_watchdog_detects_frozen_slew );
    ( "fallback run within sync bound",
      `Slow,
      test_fallback_run_within_sync_bound );
    ("campaign small", `Slow, test_campaign_small);
  ]
