(* Tests for the CPU substrate: caches, branch predictor, functional
   units, and the pipeline end-to-end. *)

module Config = Mcd_cpu.Config
module Cache = Mcd_cpu.Cache
module Branch_pred = Mcd_cpu.Branch_pred
module Fu = Mcd_cpu.Fu
module Pipeline = Mcd_cpu.Pipeline
module Controller = Mcd_cpu.Controller
module Probe = Mcd_cpu.Probe
module Metrics = Mcd_power.Metrics
module Domain = Mcd_domains.Domain

let qcheck ?(seed = 0xc9a) t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
module Reconfig = Mcd_domains.Reconfig
module B = Mcd_isa.Build
module P = Mcd_isa.Program
module Walker = Mcd_isa.Walker
module Inst = Mcd_isa.Inst

let small_cache =
  { Config.sets = 4; ways = 2; line_bytes = 64; latency_cycles = 1 }

(* --- Cache ---------------------------------------------------------- *)

let test_cache_cold_miss_then_hit () =
  let c = Cache.create small_cache in
  Alcotest.(check bool) "cold miss" false (Cache.access c ~addr:0);
  Alcotest.(check bool) "hit" true (Cache.access c ~addr:0);
  Alcotest.(check bool) "same line hit" true (Cache.access c ~addr:63);
  Alcotest.(check bool) "next line miss" false (Cache.access c ~addr:64);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_cache_lru_eviction () =
  let c = Cache.create small_cache in
  (* three lines mapping to set 0: line = addr/64; set = line mod 4 *)
  let a0 = 0 and a1 = 4 * 64 and a2 = 8 * 64 in
  ignore (Cache.access c ~addr:a0);
  ignore (Cache.access c ~addr:a1);
  (* touch a0 so a1 is LRU *)
  ignore (Cache.access c ~addr:a0);
  ignore (Cache.access c ~addr:a2);
  (* evicts a1 *)
  Alcotest.(check bool) "a0 still present" true (Cache.access c ~addr:a0);
  Alcotest.(check bool) "a1 evicted" false (Cache.access c ~addr:a1)

let test_cache_probe_no_side_effect () =
  let c = Cache.create small_cache in
  Alcotest.(check bool) "probe miss" false (Cache.probe c ~addr:0);
  Alcotest.(check bool) "probe did not fill" false (Cache.probe c ~addr:0);
  ignore (Cache.access c ~addr:0);
  Alcotest.(check bool) "probe hit" true (Cache.probe c ~addr:0);
  let h = Cache.hits c and m = Cache.misses c in
  ignore (Cache.probe c ~addr:0);
  Alcotest.(check int) "probe no hit count" h (Cache.hits c);
  Alcotest.(check int) "probe no miss count" m (Cache.misses c)

let test_cache_reset_stats () =
  let c = Cache.create small_cache in
  ignore (Cache.access c ~addr:0);
  Cache.reset_stats c;
  Alcotest.(check int) "hits reset" 0 (Cache.hits c);
  Alcotest.(check int) "misses reset" 0 (Cache.misses c)

let test_cache_direct_mapped_conflict () =
  let c =
    Cache.create { Config.sets = 2; ways = 1; line_bytes = 64; latency_cycles = 1 }
  in
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:(2 * 64));
  (* conflicts with addr 0 *)
  Alcotest.(check bool) "conflict evicted" false (Cache.access c ~addr:0)

(* --- Branch predictor ----------------------------------------------- *)

let test_bpred_learns_periodic () =
  let bp = Branch_pred.create () in
  (* pattern of period 4 is learnable by the 10-bit PAg history *)
  let pattern = [| true; true; true; false |] in
  for i = 0 to 399 do
    ignore (Branch_pred.predict_and_update bp ~pc:64 ~taken:pattern.(i mod 4))
  done;
  let correct = ref 0 in
  for i = 400 to 499 do
    if Branch_pred.predict_and_update bp ~pc:64 ~taken:pattern.(i mod 4) then
      incr correct
  done;
  Alcotest.(check bool) "learned pattern" true (!correct >= 95)

let test_bpred_biased_accuracy () =
  let bp = Branch_pred.create () in
  for _ = 1 to 200 do
    ignore (Branch_pred.predict_and_update bp ~pc:128 ~taken:true)
  done;
  Alcotest.(check bool) "always-taken accuracy" true
    (Branch_pred.accuracy bp > 0.9)

let test_bpred_btb_first_taken_misses () =
  let bp = Branch_pred.create () in
  (* warm the direction predictor on a different pc *)
  (* first taken encounter of a branch cannot have a BTB entry *)
  let first = Branch_pred.predict_and_update bp ~pc:4096 ~taken:true in
  Alcotest.(check bool) "first taken mispredicts" false first

let test_bpred_not_taken_needs_no_btb () =
  let bp = Branch_pred.create () in
  (* bias counters start weakly not-taken: after a few not-taken updates
     the direction alone suffices *)
  for _ = 1 to 4 do
    ignore (Branch_pred.predict_and_update bp ~pc:5000 ~taken:false)
  done;
  Alcotest.(check bool) "not-taken predicted without btb" true
    (Branch_pred.predict_and_update bp ~pc:5000 ~taken:false)

let test_bpred_counts () =
  let bp = Branch_pred.create () in
  for _ = 1 to 10 do
    ignore (Branch_pred.predict_and_update bp ~pc:1 ~taken:true)
  done;
  Alcotest.(check int) "lookups" 10 (Branch_pred.lookups bp);
  Alcotest.(check bool) "mispredicts bounded" true
    (Branch_pred.mispredictions bp <= 3)

(* --- Fu ------------------------------------------------------------- *)

let test_fu_pipelined () =
  let fu = Fu.create ~count:1 ~latency_cycles:3 ~pipelined:true in
  (match Fu.try_issue fu ~now:0 ~period_ps:1000 with
  | Some c -> Alcotest.(check int) "latency" 3000 c
  | None -> Alcotest.fail "issue failed");
  (* pipelined: can accept again next cycle *)
  Alcotest.(check bool) "busy same cycle" true
    (Fu.try_issue fu ~now:0 ~period_ps:1000 = None);
  Alcotest.(check bool) "free next cycle" true
    (Fu.try_issue fu ~now:1000 ~period_ps:1000 <> None)

let test_fu_unpipelined () =
  let fu = Fu.create ~count:1 ~latency_cycles:4 ~pipelined:false in
  ignore (Fu.try_issue fu ~now:0 ~period_ps:1000);
  Alcotest.(check bool) "busy mid-op" true
    (Fu.try_issue fu ~now:3000 ~period_ps:1000 = None);
  Alcotest.(check bool) "free after" true
    (Fu.try_issue fu ~now:4000 ~period_ps:1000 <> None);
  Alcotest.(check int) "ops" 2 (Fu.operations fu)

let test_fu_pool () =
  let fu = Fu.create ~count:2 ~latency_cycles:2 ~pipelined:false in
  Alcotest.(check bool) "unit 1" true (Fu.try_issue fu ~now:0 ~period_ps:1000 <> None);
  Alcotest.(check bool) "unit 2" true (Fu.try_issue fu ~now:0 ~period_ps:1000 <> None);
  Alcotest.(check bool) "pool exhausted" true
    (Fu.try_issue fu ~now:0 ~period_ps:1000 = None)

(* --- Pipeline -------------------------------------------------------- *)

let tiny_program ?(fp = false) ?(trips = 10) () =
  B.program ~name:"tiny" @@ fun b ->
  B.func b "kernel"
    [
      B.loop b (P.Const trips)
        [
          (if fp then
             B.straight b ~length:40 ~frac_fp_alu:0.3 ~frac_load:0.2 ()
           else B.straight b ~length:40 ~frac_load:0.2 ());
        ];
    ];
  B.func b "main" [ B.call b "kernel" ];
  "main"

let test_input = { P.input_name = "t"; scale = 1; divergence = 0.0; seed = 77 }

let run_tiny ?probe ?controller ?warmup_insts ?(max_insts = 10_000)
    ?(config = Config.alpha21264_like) ?(fp = false) ?(trips = 10) () =
  Pipeline.run ?probe ?controller ?warmup_insts ~config
    ~program:(tiny_program ~fp ~trips ())
    ~input:test_input ~max_insts ()

let test_pipeline_runs_to_completion () =
  let m = run_tiny () in
  (* program is ~430 instructions; everything retires *)
  Alcotest.(check bool) "all instructions retired" true
    (m.Metrics.instructions > 400 && m.Metrics.instructions < 500);
  Alcotest.(check bool) "time advanced" true (m.Metrics.runtime_ps > 0);
  Alcotest.(check bool) "energy accrued" true (m.Metrics.energy_pj > 0.0)

let test_pipeline_respects_window () =
  let m = run_tiny ~max_insts:100 () in
  Alcotest.(check int) "stops at window" 100 m.Metrics.instructions

let test_pipeline_deterministic () =
  let a = run_tiny () and b = run_tiny () in
  Alcotest.(check int) "same runtime" a.Metrics.runtime_ps b.Metrics.runtime_ps;
  Alcotest.(check (float 1e-9)) "same energy" a.Metrics.energy_pj
    b.Metrics.energy_pj

let test_pipeline_single_clock_no_sync () =
  let m = run_tiny ~config:(Config.single_clock ~mhz:1000) () in
  Alcotest.(check int) "no crossings" 0 m.Metrics.sync_crossings

let test_pipeline_mcd_has_sync () =
  let m = run_tiny () in
  Alcotest.(check bool) "crossings happen" true (m.Metrics.sync_crossings > 0)

let test_pipeline_half_speed_single_clock () =
  (* compute-bound program: no memory accesses, so runtime tracks the
     clock (memory-bound code would not — main memory is external) *)
  let prog =
    B.program ~name:"compute" @@ fun b ->
    B.func b "main"
      [ B.loop b (P.Const 200) [ B.straight b ~length:40 () ] ];
    "main"
  in
  let run mhz =
    Pipeline.run ~config:(Config.single_clock ~mhz) ~program:prog
      ~input:test_input ~max_insts:10_000 ()
  in
  let fast = run 1000 and slow = run 500 in
  let ratio =
    float_of_int slow.Metrics.runtime_ps /. float_of_int fast.Metrics.runtime_ps
  in
  Alcotest.(check bool) "roughly half speed" true (ratio > 1.7 && ratio < 2.3)

let test_pipeline_ipc_sane () =
  let m = run_tiny ~max_insts:5_000 () in
  let ipc = Metrics.ipc m in
  Alcotest.(check bool) "ipc positive and below width" true
    (ipc > 0.05 && ipc < 4.0)

let fixed_controller setting =
  let armed = ref true in
  {
    Controller.name = "fixed-test";
    on_marker =
      (fun _ ~now:_ ->
        if !armed then begin
          armed := false;
          { Controller.stall_cycles = 0; table_reads = 0; set = Some setting }
        end
        else Controller.no_reaction);
    on_sample = (fun _ ~now:_ -> None);
    sample_interval_cycles = 0;
  }

let test_pipeline_scaling_idle_domain_free () =
  let base = run_tiny ~trips:2500 ~max_insts:100_000 () in
  let scaled =
    run_tiny ~trips:2500 ~max_insts:100_000
      ~controller:
        (fixed_controller
           (Reconfig.make ~front_end:1000 ~integer:1000 ~floating:250
              ~memory:1000))
      ()
  in
  (* integer-only code: scaling the fp domain saves energy at almost no
     performance cost *)
  Alcotest.(check bool) "energy saved" true
    (scaled.Metrics.energy_pj < base.Metrics.energy_pj);
  let degr = Metrics.perf_degradation_pct ~baseline:base scaled in
  Alcotest.(check bool) "cheap" true (degr < 2.0)

let test_pipeline_scaling_busy_domain_slows () =
  let base = run_tiny ~trips:2500 ~max_insts:100_000 () in
  let scaled =
    run_tiny ~trips:2500 ~max_insts:100_000
      ~controller:
        (fixed_controller
           (Reconfig.make ~front_end:250 ~integer:250 ~floating:1000
              ~memory:250))
      ()
  in
  let degr = Metrics.perf_degradation_pct ~baseline:base scaled in
  Alcotest.(check bool) "substantially slower" true (degr > 30.0)

let test_pipeline_reconfig_counted () =
  let m =
    run_tiny
      ~controller:
        (fixed_controller
           (Reconfig.make ~front_end:1000 ~integer:500 ~floating:500
              ~memory:1000))
      ()
  in
  Alcotest.(check int) "one reconfiguration" 1 m.Metrics.reconfigurations

let test_pipeline_instrumentation_charged () =
  let every_marker =
    {
      Controller.name = "instr-test";
      on_marker =
        (fun _ ~now:_ ->
          { Controller.stall_cycles = 9; table_reads = 1; set = None });
      on_sample = (fun _ ~now:_ -> None);
      sample_interval_cycles = 0;
    }
  in
  let base = run_tiny () in
  let m = run_tiny ~controller:every_marker () in
  Alcotest.(check bool) "points counted" true (m.Metrics.instr_points > 0);
  Alcotest.(check bool) "overhead charged" true
    (m.Metrics.instr_overhead_ps > 0);
  Alcotest.(check bool) "runtime grows" true
    (m.Metrics.runtime_ps > base.Metrics.runtime_ps)

let test_pipeline_sampling_hook () =
  let samples = ref 0 in
  let sampler =
    {
      Controller.name = "sampler";
      on_marker = (fun _ ~now:_ -> Controller.no_reaction);
      on_sample =
        (fun s ~now:_ ->
          incr samples;
          Alcotest.(check int) "occupancy vector sized" Domain.count
            (Array.length s.Controller.avg_occupancy);
          None);
      sample_interval_cycles = 500;
    }
  in
  let _ = run_tiny ~trips:100 ~controller:sampler ~max_insts:5_000 () in
  Alcotest.(check bool) "sampled repeatedly" true (!samples > 3)

let test_pipeline_probe_events () =
  let events = ref [] in
  let marker_seqs = ref [] in
  let probe =
    {
      Probe.on_event = (fun e -> events := e :: !events);
      on_marker = (fun _ ~seq -> marker_seqs := seq :: !marker_seqs);
    }
  in
  let m = run_tiny ~probe ~max_insts:500 () in
  let evs = !events in
  Alcotest.(check bool) "events recorded" true (List.length evs > 0);
  (* every retired instruction has a fetch and a retire event *)
  let count stage =
    List.length (List.filter (fun e -> e.Probe.stage = stage) evs)
  in
  Alcotest.(check int) "fetch events" m.Metrics.instructions (count Probe.Fetch_s);
  Alcotest.(check int) "retire events" m.Metrics.instructions
    (count Probe.Retire_s);
  List.iter
    (fun e ->
      if e.Probe.duration <= 0 then Alcotest.fail "non-positive duration";
      if e.Probe.start < 0 then Alcotest.fail "negative start")
    evs;
  Alcotest.(check bool) "markers positioned" true (List.length !marker_seqs > 0)

let test_pipeline_fp_work_uses_fp_domain () =
  let events = ref [] in
  let probe =
    {
      Probe.on_event = (fun e -> events := e :: !events);
      on_marker = (fun _ ~seq:_ -> ());
    }
  in
  let _ = run_tiny ~trips:50 ~probe ~fp:true ~max_insts:2000 () in
  let fp_events =
    List.filter
      (fun e ->
        e.Probe.stage = Probe.Execute_s && e.Probe.domain = Domain.Floating)
      !events
  in
  Alcotest.(check bool) "fp execute events exist" true
    (List.length fp_events > 100)

let test_pipeline_mem_instructions_have_mem_events () =
  let events = ref [] in
  let probe =
    {
      Probe.on_event = (fun e -> events := e :: !events);
      on_marker = (fun _ ~seq:_ -> ());
    }
  in
  let _ = run_tiny ~trips:50 ~probe ~max_insts:2000 () in
  let mem_events =
    List.filter (fun e -> e.Probe.stage = Probe.Mem_s) !events
  in
  Alcotest.(check bool) "mem events exist" true (List.length mem_events > 50);
  List.iter
    (fun e ->
      match e.Probe.klass with
      | Inst.Load | Inst.Store -> ()
      | Inst.Int_alu | Inst.Int_mult | Inst.Fp_alu | Inst.Fp_mult
      | Inst.Branch ->
          Alcotest.fail "non-memory class in mem stage")
    mem_events

let test_pipeline_warmup_window () =
  let full = run_tiny ~trips:200 ~max_insts:8_000 () in
  let windowed = run_tiny ~trips:200 ~warmup_insts:2_000 ~max_insts:4_000 () in
  Alcotest.(check int) "measured instructions" 4_000
    windowed.Metrics.instructions;
  Alcotest.(check bool) "windowed run shorter" true
    (windowed.Metrics.runtime_ps < full.Metrics.runtime_ps);
  Alcotest.(check bool) "windowed energy smaller" true
    (windowed.Metrics.energy_pj < full.Metrics.energy_pj);
  (* a warmed-up window has better cache behaviour than a cold start of
     the same length, so it must not cost more time per instruction *)
  let cold = run_tiny ~trips:200 ~max_insts:4_000 () in
  Alcotest.(check bool) "warm window not slower than cold" true
    (windowed.Metrics.runtime_ps <= cold.Metrics.runtime_ps)

let test_config_table_renders () =
  let s = Format.asprintf "%a" Config.pp_table Config.alpha21264_like in
  Alcotest.(check bool) "mentions ROB" true
    (String.length s > 200 && Helpers.contains ~needle:"Reorder buffer" s)

(* --- qcheck: pipeline invariants over random small programs ---------- *)

let prop_pipeline_energy_positive =
  QCheck.Test.make ~name:"pipeline energy positive on random mixes" ~count:20
    QCheck.(
      triple (float_range 0.0 0.4) (float_range 0.0 0.3) (int_range 1 1000))
    (fun (fl, ff, seed) ->
      let prog =
        B.program ~name:"q" @@ fun b ->
        B.func b "main"
          [
            B.loop b (P.Const 5)
              [ B.straight b ~length:60 ~frac_load:fl ~frac_fp_alu:ff () ];
          ];
        "main"
      in
      let m =
        Pipeline.run ~config:Config.alpha21264_like ~program:prog
          ~input:{ P.input_name = "q"; scale = 1; divergence = 0.0; seed }
          ~max_insts:400 ()
      in
      m.Metrics.energy_pj > 0.0 && m.Metrics.runtime_ps > 0
      && m.Metrics.instructions > 0)

let suite =
  [
    ("cache cold miss then hit", `Quick, test_cache_cold_miss_then_hit);
    ("cache lru eviction", `Quick, test_cache_lru_eviction);
    ("cache probe no side effect", `Quick, test_cache_probe_no_side_effect);
    ("cache reset stats", `Quick, test_cache_reset_stats);
    ("cache direct-mapped conflict", `Quick, test_cache_direct_mapped_conflict);
    ("bpred learns periodic", `Quick, test_bpred_learns_periodic);
    ("bpred biased accuracy", `Quick, test_bpred_biased_accuracy);
    ("bpred first taken misses", `Quick, test_bpred_btb_first_taken_misses);
    ("bpred not-taken no btb", `Quick, test_bpred_not_taken_needs_no_btb);
    ("bpred counts", `Quick, test_bpred_counts);
    ("fu pipelined", `Quick, test_fu_pipelined);
    ("fu unpipelined", `Quick, test_fu_unpipelined);
    ("fu pool", `Quick, test_fu_pool);
    ("pipeline runs to completion", `Quick, test_pipeline_runs_to_completion);
    ("pipeline respects window", `Quick, test_pipeline_respects_window);
    ("pipeline deterministic", `Quick, test_pipeline_deterministic);
    ("pipeline single clock no sync", `Quick, test_pipeline_single_clock_no_sync);
    ("pipeline mcd has sync", `Quick, test_pipeline_mcd_has_sync);
    ("pipeline half-speed ratio", `Quick, test_pipeline_half_speed_single_clock);
    ("pipeline ipc sane", `Quick, test_pipeline_ipc_sane);
    ("pipeline idle-domain scaling free", `Quick,
     test_pipeline_scaling_idle_domain_free);
    ("pipeline busy-domain scaling slows", `Quick,
     test_pipeline_scaling_busy_domain_slows);
    ("pipeline reconfig counted", `Quick, test_pipeline_reconfig_counted);
    ("pipeline instrumentation charged", `Quick,
     test_pipeline_instrumentation_charged);
    ("pipeline sampling hook", `Quick, test_pipeline_sampling_hook);
    ("pipeline probe events", `Quick, test_pipeline_probe_events);
    ("pipeline fp domain events", `Quick, test_pipeline_fp_work_uses_fp_domain);
    ("pipeline mem events", `Quick, test_pipeline_mem_instructions_have_mem_events);
    ("pipeline warmup window", `Quick, test_pipeline_warmup_window);
    ("config table renders", `Quick, test_config_table_renders);
    qcheck prop_pipeline_energy_positive;
  ]
