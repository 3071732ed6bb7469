(* The two cold workloads: the paper's chain under phase sampling
   (headline-cold) and the generative campaign (campaign-gen). Each
   runs from an empty store.

   Untraced, the measured phase calls the composite ([Headline.rows],
   [Campaign.run]), timed whole. Traced, the composite is re-executed as the sequence of public calls
   it makes, each wrapped in a span named after the layer it enters; its
   outputs must come out byte-identical to the composite's. *)

module Runner = Mcd_experiments.Runner
module Headline = Mcd_experiments.Headline
module Campaign = Mcd_experiments.Campaign
module Workload = Mcd_workloads.Workload
module Suite = Mcd_workloads.Suite
module Metrics = Mcd_power.Metrics
module Pipeline = Mcd_cpu.Pipeline
module Sampler = Mcd_cpu.Sampler
module Context = Mcd_profiling.Context
module Call_tree = Mcd_profiling.Call_tree
module Collector = Mcd_trace.Collector
module Interval_collector = Mcd_trace.Interval_collector
module Dag = Mcd_core.Dag
module Shaker = Mcd_core.Shaker
module Path_model = Mcd_core.Path_model
module Plan = Mcd_core.Plan
module Plan_io = Mcd_core.Plan_io
module Oracle = Mcd_core.Oracle
module Editor = Mcd_core.Editor
module Histogram = Mcd_util.Histogram
module Freq = Mcd_domains.Freq
module Policy = Mcd_control.Policy
module Policies = Mcd_control.Policies
module Attack_decay = Mcd_control.Attack_decay
module Spec = Mcd_gen.Spec
module Assert = Mcd_gen.Assert
module Rng = Mcd_util.Rng
module Json = Mcd_obs.Json
module Cstore = Mcd_cache.Store

let config = Mcd_cpu.Config.alpha21264_like
let context = Context.lf
let slowdown_pct = Runner.default_slowdown_pct

(* Metric-name form of a program or policy label. *)
let slug s = String.map (fun c -> if c = ' ' then '-' else c) s

(* ------------------------------------------------------------------ *)
(* Layer accounting for the traced runs. *)

(* Simulated cycles of an exact run and the host seconds it took, split
   by program and by policy for [cpu.ns_per_cycle]. *)
let account_exact ~program ~policy dt (run : Metrics.run) =
  let cycles = float_of_int run.Metrics.cycles_front in
  Span.count "cpu.cycles" cycles;
  List.iter
    (fun part ->
      Span.count ("exact_s." ^ part) dt;
      Span.count ("cycles." ^ part) cycles)
    [ "prog." ^ slug program; "policy." ^ slug policy ]

(* A simulation of the reference window, as [Runner] runs production
   segments, timed into [cpu.exact]/[cpu.sampled] with its simulated
   cycles, split by program and by policy. *)
let simulate ?controller ~sampling ~program ~policy (w : Workload.t) =
  let report = ref None in
  let span = if sampling = None then "cpu.exact" else "cpu.sampled" in
  let t0 = Span.now_s () in
  let run =
    Span.with_ span (fun () ->
        Pipeline.run ?controller ?sampling ~sampler_report:report ~config
          ~warmup_insts:w.Workload.ref_offset ~program:w.Workload.program
          ~input:w.Workload.reference ~max_insts:w.Workload.ref_window ())
  in
  let dt = Span.now_s () -. t0 in
  (match !report with
  | Some r ->
      Span.count "cpu.sampled_insts" (float_of_int run.Metrics.instructions);
      Span.count "cpu.skipped_insts" (float_of_int r.Sampler.skipped_insts);
      Span.count "cpu.unstable_sigs" (float_of_int r.Sampler.unstable_signatures)
  | None -> ());
  if sampling = None then account_exact ~program ~policy dt run;
  run

(* The persistent-store traffic [Runner] wraps around a computed
   result: derive the key, look it up (a cold store misses), compute,
   encode, write. *)
let stored ~key ~encode compute =
  let store = Option.get (Cstore.default ()) in
  let key = Span.with_ "cache.key" key in
  ignore (Span.with_ "cache.find" (fun () -> Cstore.find store key));
  let v = compute () in
  let payload = Span.with_ "power.codec" (fun () -> encode v) in
  Span.with_ "cache.add" (fun () -> Cstore.add store key payload);
  v

let request_key w policy () =
  Runner.request_key w ~policy ~context ~slowdown_pct

(* One DAG through the analysis kernels: build, shake, path
   signatures — the inner loop of both [Analyze.analyze] and
   [Oracle.analyze]. *)
let shake_dag ?max_passes events =
  let dag =
    Span.with_ "core.dag" (fun () ->
        Dag.build ~rob_size:config.Mcd_cpu.Config.rob_size events)
  in
  Span.count "trace.events" (float_of_int (Array.length events));
  Span.count "core.dag_events" (float_of_int (Dag.size dag));
  let result = Span.with_ "core.shaker" (fun () -> Shaker.run ?max_passes dag) in
  Span.count "core.shaker_passes" (float_of_int result.Shaker.passes);
  Span.count "core.stretched_events" (float_of_int result.Shaker.stretched_events);
  Span.count "core.total_events" (float_of_int result.Shaker.total_events);
  let paths = Span.with_ "core.paths" (fun () -> Dag.path_signatures dag) in
  (dag, result, paths)

(* [Analyze.analyze] as [Runner.plan_for] calls it: profiler walk of the
   training input, traced full-speed training run, shaker over every
   long node's segments, thresholding into a plan. *)
let min_segment_events = 50
let shaker_passes = 24

let analyze_plan (w : Workload.t) =
  let input, _ = Runner.analysis_input w ~train:`Train in
  let tree =
    Span.with_ "profiling.walk" (fun () ->
        Call_tree.build w.Workload.program ~input ~context
          ~threshold:Call_tree.default_threshold
          ~max_insts:Runner.analysis_profile_insts ())
  in
  Span.count "profiling.insts" (float_of_int (Call_tree.instructions_profiled tree));
  let collector = Collector.create ~tree () in
  ignore
    (Span.with_ "trace.run" (fun () ->
         Pipeline.run ~probe:(Collector.probe collector) ~config
           ~program:w.Workload.program ~input
           ~max_insts:(Runner.analysis_trace_insts w ~train:`Train) ()));
  let node_histograms = ref [] and node_paths = ref [] in
  List.iter
    (fun (node_id, segments) ->
      let merged =
        Array.init Mcd_domains.Domain.count (fun _ ->
            Histogram.create ~bins:Freq.num_steps)
      in
      let paths = ref Path_model.empty and used = ref false in
      List.iter
        (fun seg ->
          if Array.length seg >= min_segment_events then begin
            let _, result, sigs = shake_dag ~max_passes:shaker_passes seg in
            Array.iteri
              (fun i h -> Histogram.merge_into ~dst:merged.(i) ~src:h)
              result.Shaker.histograms;
            paths := Path_model.add_segment !paths sigs;
            used := true
          end)
        segments;
      if !used then begin
        node_histograms := (node_id, merged) :: !node_histograms;
        node_paths := (node_id, !paths) :: !node_paths
      end)
    (Collector.segments collector);
  let plan =
    Span.with_ "core.plan" (fun () ->
        Plan.make ~tree ~context ~slowdown_pct ~node_histograms:!node_histograms
          ~node_paths:!node_paths ())
  in
  (* the plan segment's store encoding *)
  ignore (Span.with_ "core.plan_io" (fun () -> Plan_io.to_string plan));
  plan

(* [Oracle.analyze] as [Runner.offline_run] calls it: the production
   input traced at full speed, one DAG per 10k-instruction interval. *)
let min_interval_events = 50

let oracle_analysis (w : Workload.t) =
  let collector =
    Interval_collector.create ~interval_insts:Oracle.default_interval_insts ()
  in
  ignore
    (Span.with_ "trace.run" (fun () ->
         Pipeline.run ~probe:(Interval_collector.probe collector) ~config
           ~program:w.Workload.program ~input:w.Workload.reference
           ~max_insts:(w.Workload.ref_offset + w.Workload.ref_window) ()));
  let intervals =
    List.map
      (fun events ->
        if Array.length events < min_interval_events then
          { Oracle.histograms = None; paths = Path_model.empty; duration_ps = 0.0 }
        else begin
          let dag, result, sigs = shake_dag events in
          {
            Oracle.histograms = Some result.Shaker.histograms;
            paths = Path_model.add_segment Path_model.empty sigs;
            duration_ps = dag.Dag.t_max -. dag.Dag.t_min;
          }
        end)
      (Interval_collector.intervals collector)
  in
  let analysis =
    {
      Oracle.interval_insts = Oracle.default_interval_insts;
      intervals = Array.of_list intervals;
    }
  in
  ignore (Span.with_ "core.plan_io" (fun () -> Oracle.encode_analysis analysis));
  analysis

(* ------------------------------------------------------------------ *)
(* The measured phase: [once] runs the composite, and runs again, each
   time from an empty store of its own, while the next run is expected
   to end within [seconds]. One run of campaign-gen's composite lasts
   17 s to 27 s as the host's speed swings; repeating it lets the phase
   average over more of the swings without running past the length the
   benchmark asks for. Returns each run's result. *)
let measured_phase (r : Measure.t) ~seconds ~store_dir ~first_store once =
  let stores = ref [ first_store ] in
  let t0 = Span.now_s () in
  let results =
    Span.with_ "experiments" (fun () ->
        let rec go acc last =
          let elapsed = Span.now_s () -. t0 in
          if acc <> [] && elapsed +. last > seconds then List.rev acc
          else begin
            if acc <> [] then
              stores :=
                Measure.fresh_store (Printf.sprintf "%s-%d" store_dir (List.length acc))
                :: !stores;
            let t = Span.now_s () in
            let v = once () in
            go (v :: acc) (Span.now_s () -. t)
          end
        in
        go [] 0.0)
  in
  r.measured_s <- Span.now_s () -. t0;
  r.layers <- Measure.store_stats !stores @ r.layers;
  results

(* ------------------------------------------------------------------ *)
(* headline-cold *)

let headline_programs = [ "adpcm decode"; "applu" ]
let cell_names = [ "baseline"; "offline"; "online"; "profile" ]

(* [Headline.rows]'s per-benchmark calls, in its order. *)
let headline_cells (w : Workload.t) =
  [
    (fun () -> Runner.baseline w);
    (fun () -> Runner.offline_run w);
    (fun () -> Runner.online_run w);
    (fun () -> (Runner.profile_run w ~context ~train:`Train).Runner.run);
  ]

(* The same cells from the layers' public calls. The profiled-run
   payload mirrors [Runner]'s "profiled 1" container. *)
let traced_headline_cells (w : Workload.t) =
  let sampling = Some Sampler.default_params in
  let program = w.Workload.name in
  let metrics_stored policy compute =
    stored ~key:(request_key w policy) ~encode:Metrics.encode compute
  in
  [
    (fun () ->
      metrics_stored `Baseline (fun () ->
          simulate ~sampling ~program ~policy:"baseline" w));
    (fun () ->
      let analysis = oracle_analysis w in
      let schedule =
        Span.with_ "core.plan" (fun () -> Oracle.schedule_of analysis ~slowdown_pct)
      in
      metrics_stored `Offline (fun () ->
          simulate ~controller:(Oracle.policy schedule) ~sampling ~program
            ~policy:"offline" w));
    (fun () ->
      let p = Attack_decay.policy () in
      stored
        ~key:(fun () -> Runner.policy_key p w)
        ~encode:Metrics.encode
        (fun () ->
          simulate ~controller:(p.Policy.create ()) ~sampling:None ~program
            ~policy:p.Policy.label w));
    (fun () ->
      let plan = analyze_plan w in
      let edited = Span.with_ "core.plan" (fun () -> Editor.edit plan) in
      let encode run =
        Printf.sprintf "profiled 1\nreconfig_execs %d\ninstr_execs %d\n%s"
          edited.Editor.counters.Editor.reconfig_execs
          edited.Editor.counters.Editor.instr_execs (Metrics.encode run)
      in
      stored ~key:(request_key w `Profile) ~encode (fun () ->
          simulate ~controller:edited.Editor.controller ~sampling ~program
            ~policy:"profile" w));
  ]

let cells_json cells =
  Json.Obj
    (List.map
       (fun (program, runs) ->
         ( program,
           Json.Obj
             (List.map2 (fun name run -> (name, Json.String (Metrics.encode run)))
                cell_names runs) ))
       cells)

let comparison_line (c : Runner.comparison) =
  Printf.sprintf "%h %h %h" c.Runner.degradation_pct c.Runner.savings_pct
    c.Runner.ed_improvement_pct

(* Largest |sampled - exact| in percentage points over degradation,
   savings and ED improvement of every policy cell, each against its
   own mode's baseline. *)
let drift_pp ~exact cells =
  List.fold_left
    (fun acc (program, runs) ->
      let exact_runs =
        List.map
          (fun name ->
            match Option.bind (Json.member program exact) (Json.member name) with
            | Some (Json.String s) -> (
                match Metrics.decode s with
                | Ok run -> run
                | Error e -> failwith ("exact reference: " ^ e))
            | _ -> failwith ("exact reference lacks " ^ program ^ "/" ^ name))
          cell_names
      in
      match (runs, exact_runs) with
      | sb :: sampled, eb :: exacts ->
          List.fold_left2
            (fun acc s e ->
              let cs = Runner.compare_runs ~baseline:sb s
              and ce = Runner.compare_runs ~baseline:eb e in
              List.fold_left Float.max acc
                [
                  Float.abs (cs.Runner.degradation_pct -. ce.Runner.degradation_pct);
                  Float.abs (cs.Runner.savings_pct -. ce.Runner.savings_pct);
                  Float.abs
                    (cs.Runner.ed_improvement_pct -. ce.Runner.ed_improvement_pct);
                ])
            acc sampled exacts
      | _ -> acc)
    0.0 cells

(* The paper's headline drift is about 1.8 pp; a sampler change that
   more than doubles it no longer reproduces the figures. *)
let drift_limit_pp = 4.0

(* A cell's runs as the untraced run reports them: read back from the
   memo tables [Headline.rows] filled. *)
let memo_cells workloads =
  List.map
    (fun (w : Workload.t) ->
      (w.Workload.name, List.map (fun call -> call ()) (headline_cells w)))
    workloads

let traced_headline workloads =
  let cells =
    List.map
      (fun (w : Workload.t) ->
        (w.Workload.name, List.map (fun call -> call ()) (traced_headline_cells w)))
      workloads
  in
  let rows =
    List.map2
      (fun w (_, runs) ->
        match runs with
        | [ baseline; offline; online; profile ] ->
            {
              Headline.workload = w;
              offline = Runner.compare_runs ~baseline offline;
              online = Runner.compare_runs ~baseline online;
              profile = Runner.compare_runs ~baseline profile;
            }
        | _ -> assert false)
      workloads cells
  in
  (rows, cells)

let headline ~(r : Measure.t) ~traced ~reference ~seconds ~store_dir ~process_start =
  let (workloads, first_store), setup_s =
    Measure.setup ~process_start (fun () ->
        let store = Measure.fresh_store store_dir in
        Runner.set_sim_mode (Runner.Sampled Sampler.default_params);
        (List.map Suite.by_name headline_programs, store))
  in
  r.setup_s <- setup_s;
  let runs =
    measured_phase r ~seconds ~store_dir ~first_store (fun () ->
        if traced then traced_headline workloads
        else
          let rows = Headline.rows ~workloads () in
          (* read back before the next run clears the memo tables *)
          (rows, memo_cells workloads))
  in
  Measure.count_ops r (List.length runs * List.length workloads * List.length cell_names);
  let golden = Textfile.read reference "headline-sampled.json" in
  List.iter
    (fun (_, cells) ->
      match golden with
      | Some g when g = Json.to_string (cells_json cells) -> ()
      | Some _ -> Measure.fail r "headline cells differ from reference/headline-sampled.json"
      | None -> Measure.fail r "reference/headline-sampled.json missing")
    runs;
  (* a traced run may repeat the composite a different number of times,
     so the outputs it must reproduce are the first run's *)
  let rows, cells = List.hd runs in
  Measure.output r "cells %s\n" (Json.to_string (cells_json cells));
  List.iter
    (fun (row : Headline.row) ->
      Measure.output r "row %s offline %s online %s profile %s\n"
        row.Headline.workload.Workload.name
        (comparison_line row.Headline.offline)
        (comparison_line row.Headline.online)
        (comparison_line row.Headline.profile))
    rows;
  match Option.map Json.of_string (Textfile.read reference "headline-exact.json") with
  | Some (Ok exact) ->
      let d = drift_pp ~exact cells in
      r.layers <- ("drift_pp", d) :: r.layers;
      Measure.note r "drift_pp %.4f (limit %.1f)" d drift_limit_pp;
      if d > drift_limit_pp then
        Measure.fail r "sampled drift %.3f pp exceeds %.1f pp" d drift_limit_pp
  | _ -> Measure.fail r "reference/headline-exact.json missing or unreadable"

(* ------------------------------------------------------------------ *)
(* campaign-gen *)

(* The campaign runs one fixed spec stream, not one drawn from the
   benchmark's seed: a drawn spec's evaluation takes anywhere from 0.3 s
   to 5.3 s on a 2-vCPU host (48 draws measured), and a spec that finds
   a counterexample adds tens of shrink evaluations, so a seeded stream
   would make the amount of work, not the program's speed, set the
   spread between runs. Master seed 5 draws four specs; one of them
   makes profile-driven control lose to both reactive rivals, and both
   finds are shrunk (11 and 9 shrink steps). *)
let campaign_count = 4
let campaign_seed = 5

let campaign_params () =
  { Campaign.default_params with Campaign.count = campaign_count; seed = campaign_seed }

(* [Campaign.run]'s spec stream: per-spec seeds split from the master
   seed by index. *)
let drawn_specs (params : Campaign.params) =
  let master = Rng.create params.Campaign.seed in
  List.init params.Campaign.count (fun i ->
      let r = Rng.split master ~label:(Printf.sprintf "spec-%d" i) in
      let seed = Int64.to_int (Rng.int64 r) land max_int in
      Spec.draw ~train_insts:params.Campaign.train_insts
        ~ref_insts:params.Campaign.ref_insts ~seed ())

(* [Campaign.evaluate] from its public calls. A spec evaluated before
   in this process ([account] false) finds its baseline, profile and
   policy runs in [Runner]'s memo tables, so those calls add neither
   simulated cycles nor paired observed/plain seconds. *)
let traced_evaluate ~account (params : Campaign.params) spec =
  let w = Span.with_ "gen.draw" (fun () -> Spec.workload spec) in
  Suite.register w;
  let findings = ref [] in
  let add vs =
    List.iter (fun v -> findings := Campaign.Assertion v :: !findings) vs
  in
  let check f = add (Span.with_ "gen.assert" f) in
  let exact ~policy f =
    let t0 = Span.now_s () in
    let run = Span.with_ "cpu.exact" f in
    let dt = Span.now_s () -. t0 in
    if account then account_exact ~program:"generated" ~policy dt run;
    (run, dt)
  in
  let baseline, _ = exact ~policy:"baseline" (fun () -> Runner.baseline w) in
  check (fun () -> Assert.run_sane ~label:"baseline" baseline);
  ignore
    (Span.with_ "core.analyze" (fun () -> Runner.plan_for w ~context ~train:`Train));
  let profile, profile_s =
    exact ~policy:"profile" (fun () ->
        (Runner.profile_run ~slowdown_pct:params.Campaign.slowdown_pct w ~context
           ~train:`Train)
          .Runner.run)
  in
  check (fun () -> Assert.run_sane ~label:"profile" profile);
  check (fun () ->
      Assert.degradation_bounded ~label:"profile"
        ~slowdown_pct:params.Campaign.slowdown_pct
        ~epsilon_pct:params.Campaign.epsilon_pct ~baseline profile);
  let cp = Runner.compare_runs ~baseline profile in
  let online_s = ref 0.0 in
  List.iter
    (fun (policy : Policy.t) ->
      let rrun, dt = exact ~policy:policy.Policy.label (fun () -> Runner.policy_run policy w) in
      if policy.Policy.label = "online" then online_s := dt;
      check (fun () -> Assert.run_sane ~label:policy.Policy.label rrun);
      let cr = Runner.compare_runs ~baseline rrun in
      if
        cr.Runner.ed_improvement_pct
        > cp.Runner.ed_improvement_pct +. params.Campaign.margin_pct
      then
        findings :=
          Campaign.Profile_loses
            {
              rival = policy.Policy.label;
              profile_ed_pct = cp.Runner.ed_improvement_pct;
              rival_ed_pct = cr.Runner.ed_improvement_pct;
            }
          :: !findings)
    (Policies.adversaries ());
  if params.Campaign.observe then begin
    let observed policy sink =
      let t0 = Span.now_s () in
      let run =
        Span.with_ "obs.observed" (fun () ->
            Runner.observed_run ~policy ~context ~sink w)
      in
      (run, Span.now_s () -. t0)
    in
    let sink = Mcd_obs.Sink.create ~domains:Mcd_domains.Domain.count () in
    let orun, obs_profile_s = observed `Profile sink in
    check (fun () -> Assert.run_sane ~label:"profile-observed" orun);
    let plan = Runner.plan_for w ~context ~train:`Train in
    let floor = Assert.plan_floor_mhz plan in
    let ipc_threshold = 0.5 *. Metrics.ipc baseline in
    check (fun () ->
        Assert.floor_respected ~label:"profile-observed" ~floor_mhz:floor
          ~ipc_threshold sink);
    let sink2 = Mcd_obs.Sink.create ~domains:Mcd_domains.Domain.count () in
    let _, obs_online_s = observed `Online sink2 in
    check (fun () -> Assert.decisions_on_grid ~label:"online-observed" sink2);
    (* the same two runs unobserved, for the sink's overhead *)
    if account && !online_s > 0.0 then begin
      Span.count "obs.paired_observed_s" (obs_profile_s +. obs_online_s);
      Span.count "obs.paired_plain_s" (profile_s +. !online_s)
    end
  end;
  List.rev !findings

(* [Campaign.run]'s minimization: qcheck shrinking toward the smallest
   spec whose evaluation still shows the find's class. *)
let minimize ~evaluate (params : Campaign.params) (h : Campaign.hit) =
  let key = Campaign.kind_key h.Campaign.kind in
  let reproduces s =
    List.exists (fun k -> Campaign.kind_key k = key) (evaluate s)
  in
  let arb =
    QCheck.make ~print:Spec.canonical
      ~shrink:(fun s -> QCheck.Iter.of_list (Spec.shrink s))
      (QCheck.Gen.return h.Campaign.spec)
  in
  let cell =
    QCheck.Test.make_cell ~count:1 ~name:("minimize " ^ key) arb (fun s ->
        not (reproduces s))
  in
  let res =
    QCheck.Test.check_cell ~rand:(Random.State.make [| params.Campaign.seed |]) cell
  in
  let minimized, shrink_steps =
    match QCheck.TestResult.get_state res with
    | QCheck.TestResult.Failed { instances = ce :: _ } ->
        (ce.QCheck.TestResult.instance, ce.QCheck.TestResult.shrink_steps)
    | _ -> (h.Campaign.spec, 0)
  in
  let minimized_kind =
    match
      List.find_opt (fun k -> Campaign.kind_key k = key) (evaluate minimized)
    with
    | Some k -> k
    | None -> h.Campaign.kind
  in
  { Campaign.hit = h; minimized; shrink_steps; minimized_kind }

(* [Campaign.run] from the steps above; the number of evaluations it
   made, drawn and shrink candidates. *)
let traced_campaign (params : Campaign.params) =
  let evaluated = Hashtbl.create 64 and evaluations = ref 0 in
  let evaluate spec =
    incr evaluations;
    let key = Spec.canonical spec in
    let account = not (Hashtbl.mem evaluated key) in
    Hashtbl.replace evaluated key ();
    traced_evaluate ~account params spec
  in
  let specs = Span.with_ "gen.draw" (fun () -> drawn_specs params) in
  Span.count "gen.specs" (float_of_int (List.length specs));
  let results = List.map (fun spec -> (spec, evaluate spec)) specs in
  let hits =
    List.concat_map
      (fun (spec, ks) -> List.map (fun kind -> { Campaign.spec; kind }) ks)
      results
  in
  let seen = Hashtbl.create 16 in
  let classes =
    List.filter
      (fun h ->
        let key = Campaign.kind_key h.Campaign.kind in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      hits
  in
  let to_minimize = List.filteri (fun i _ -> i < params.Campaign.minimize) classes in
  let shrink_evaluate s =
    Span.count "gen.shrink_evals" 1.0;
    evaluate s
  in
  let findings = List.map (minimize ~evaluate:shrink_evaluate params) to_minimize in
  ( {
      Campaign.params;
      total = List.length specs;
      hits;
      findings;
      skipped_minimize = List.length classes - List.length to_minimize;
    },
    !evaluations )

(* [Campaign.run] on the fixed stream evaluates its 4 drawn specs and 34
   shrink candidates; the golden report pins that path. *)
let campaign_evaluations = 38

let campaign_golden = "campaign.json"

let campaign ~(r : Measure.t) ~traced ~reference ~seconds ~store_dir ~process_start =
  let (params, first_store), setup_s =
    Measure.setup ~process_start (fun () ->
        let store = Measure.fresh_store store_dir in
        Runner.set_sim_mode Runner.Exact;
        (campaign_params (), store))
  in
  r.setup_s <- setup_s;
  let once () =
    if not traced then Campaign.run ~params ()
    else begin
      let report, evaluations = traced_campaign params in
      if evaluations <> campaign_evaluations then
        Measure.fail r "campaign made %d evaluations, not %d" evaluations
          campaign_evaluations;
      report
    end
  in
  let reports = measured_phase r ~seconds ~store_dir ~first_store once in
  Measure.count_ops r (List.length reports * campaign_evaluations);
  Measure.output r "%s\n" (Json.to_string (Campaign.to_json (List.hd reports)));
  let golden = Textfile.read reference campaign_golden in
  List.iter
    (fun report ->
      let json = Json.to_string (Campaign.to_json report) in
      match golden with
      | Some g when g = json -> ()
      | Some _ -> Measure.fail r "campaign report differs from reference/%s" campaign_golden
      | None -> Measure.fail r "reference/%s missing" campaign_golden)
    reports;
  (* every finding must reproduce on replay *)
  List.iter
    (fun (f : Campaign.finding) ->
      r.attempted <- r.attempted + 1;
      let key = Campaign.kind_key f.Campaign.minimized_kind in
      if
        not
          (List.exists
             (fun k -> Campaign.kind_key k = key)
             (Campaign.replay ~params f.Campaign.minimized))
      then Measure.fail r "finding %s does not reproduce under Campaign.replay" key)
    (List.hd reports).Campaign.findings
