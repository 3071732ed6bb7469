module Workload = Mcd_workloads.Workload
module Metrics = Mcd_power.Metrics
module Pipeline = Mcd_cpu.Pipeline
module Config = Mcd_cpu.Config
module Context = Mcd_profiling.Context
module Plan = Mcd_core.Plan
module Editor = Mcd_core.Editor
module Analyze = Mcd_core.Analyze
module Policy = Mcd_control.Policy
module Policies = Mcd_control.Policies
module Freq = Mcd_domains.Freq
module Ckey = Mcd_cache.Key
module Cstore = Mcd_cache.Store

type comparison = {
  degradation_pct : float;
  savings_pct : float;
  ed_improvement_pct : float;
}

let compare_runs ~baseline run =
  {
    degradation_pct = Metrics.perf_degradation_pct ~baseline run;
    savings_pct = Metrics.energy_savings_pct ~baseline run;
    ed_improvement_pct = Metrics.ed_improvement_pct ~baseline run;
  }

let default_slowdown_pct = 7.0

let config = Config.alpha21264_like

type profiled_run = {
  run : Metrics.run;
  plan : Plan.t Lazy.t;
  counters : Editor.counters;
}

(* --- simulation mode --------------------------------------------------- *)

module Sampler = Mcd_cpu.Sampler

type sim_mode = Exact | Sampled of Sampler.params

(* Mutable configuration, like [jobs] below: the bench/CLI drivers set
   it once at startup and every entry point inherits it without
   threading a parameter through each signature. Worker domains read
   the same ref. *)
let sim_mode = ref Exact
let set_sim_mode m = sim_mode := m
let get_sim_mode () = !sim_mode

let sampling () = match !sim_mode with Exact -> None | Sampled p -> Some p

(* Sampled results are different objects from exact ones: production
   run keys — and so the in-memory memo keys, which are their canonical
   lines — grow a ("sim", ...) part, so the two modes never serve each
   other's numbers. In [Exact] mode the part is absent — exact keys are
   byte-identical to what they were before sampling existed. Plans and
   oracle analyses are always computed exactly, so their keys never
   carry the part. *)
let sim_parts () =
  match !sim_mode with
  | Exact -> []
  | Sampled p -> [ ("sim", "sampled:" ^ Sampler.params_id p) ]

(* Memo tables are domain-local: experiment sweeps fan out across OCaml
   domains (see [map_workloads]) and [Hashtbl] is not safe under
   concurrent mutation. Each domain lazily builds its own table, so a
   worker keeps full memoization within its share of a sweep while the
   main domain retains its cache across experiments, exactly as the old
   global tables did in sequential runs. Results are deterministic per
   key, so duplicated computation across domains cannot change output.

   Below the memo tables sits the optional persistent content-addressed
   store ({!Mcd_cache.Store.default}): memo tables die with their domain
   (and with the process), the disk store survives both, so a warm rerun
   skips simulation entirely. *)
let dls_table () = Domain.DLS.new_key (fun () -> Hashtbl.create 64)

(* runs with the marker points they executed, by store key *)
let memo_key :
    (string, Metrics.run * Editor.counters) Hashtbl.t Domain.DLS.key =
  dls_table ()

let plan_memo_key : (string, Plan.t) Hashtbl.t Domain.DLS.key = dls_table ()

let oracle_memo_key : (string, Mcd_core.Oracle.analysis) Hashtbl.t Domain.DLS.key =
  dls_table ()

(* the key fragments every run, plan and oracle key opens with, by
   (input, config); see [base_parts] *)
let base_parts_memo_key :
    ( Mcd_isa.Program.input * Config.t,
      Mcd_isa.Program.t * (string * string) list )
    Hashtbl.t
    Domain.DLS.key =
  dls_table ()

let memo () = Domain.DLS.get memo_key
let plan_memo () = Domain.DLS.get plan_memo_key
let oracle_memo () = Domain.DLS.get oracle_memo_key
let base_parts_memo () = Domain.DLS.get base_parts_memo_key

let clear_caches () =
  Hashtbl.reset (memo ());
  Hashtbl.reset (plan_memo ());
  Hashtbl.reset (oracle_memo ());
  Hashtbl.reset (base_parts_memo ())

let memoize tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.add tbl key v;
      v

(* Concurrency of the experiment fan-out. Mutable configuration rather
   than a parameter so every figure/table module inherits it without
   threading [?jobs] through each signature; set once at startup by the
   bench/CLI drivers. *)
let jobs = ref 1
let set_jobs n = jobs := max 1 n
let get_jobs () = !jobs

let par_map f xs = Mcd_util.Par.map ~jobs:!jobs f xs
let map_workloads f ws = par_map f ws

(* --- shared analysis-window derivation --------------------------------- *)

(* One derivation for every consumer (plan_for, load_plan, Tables's
   coverage table, the CLI's tree command): the profiler walks
   [analysis_profile_insts] instructions to build the call tree, and the
   timing trace behind a plan covers at most 120_000 of the training
   window. Divergent copies of these constants are precisely how plan
   files stop round-tripping. *)
let analysis_profile_insts = 400_000

let analysis_input (w : Workload.t) ~train =
  match train with
  | `Train -> (w.Workload.train, w.Workload.train_window)
  | `Reference -> (w.Workload.reference, w.Workload.ref_window)

let analysis_trace_insts (w : Workload.t) ~train =
  let _, window = analysis_input w ~train in
  min window 120_000

(* Full profiler walks are the warm-path tax S1 of PR 7 removes: the
   counter lets tests pin that a warm disk hit performs none. *)
let profiler_walk_count = Atomic.make 0
let profiler_walks () = Atomic.get profiler_walk_count

let training_tree ?threshold (w : Workload.t) ~context ~train =
  Atomic.incr profiler_walk_count;
  let input, _ = analysis_input w ~train in
  Mcd_profiling.Call_tree.build w.Workload.program ~input ~context ?threshold
    ~max_insts:analysis_profile_insts ()

(* --- persistent cache keys and codecs ---------------------------------- *)

(* Rendering the program and the configuration costs microseconds a
   key, and a served request derives one per arrival, so the fragments
   are derived once per (program, input, config) in each domain. The
   input and the config are plain data and compare by value. The
   program is matched by physical identity: it holds [Choose] closures,
   so it has no structural equality, and a workload name would hand a
   program rebuilt under that name a stale key. A different program at
   the same (input, config) replaces the entry. *)
let base_parts (w : Workload.t) ~config ~input =
  let program = w.Workload.program in
  let tbl = base_parts_memo () in
  match Hashtbl.find_opt tbl (input, config) with
  | Some (p, parts) when p == program -> parts
  | Some _ | None ->
      let parts =
        Ckey.program_fragment program ~input
        @ Ckey.input_fragment input
        @ Ckey.config_fragment config
        @ Ckey.freq_fragment ()
      in
      Hashtbl.replace tbl (input, config) (program, parts);
      parts

(* A production run is identified by everything the simulator sees: the
   program (at the reference input), the input itself, the processor
   configuration, the frequency grid, the measurement window, and the
   policy driving reconfiguration (with all its parameters). The policy
   identity is rendered by [Ckey.policy_fragment] so the experiment
   service derives byte-identical request keys. Runs that are exact in
   every mode (feedback policies and observed runs, see [policy_key])
   pass [~modal:false] to drop the ("sim", ...) part: their one result
   serves both modes. *)
let run_key ?(modal = true) (w : Workload.t) ~config ~policy ~params =
  Ckey.make ~kind:"run"
    ~parts:
      (base_parts w ~config ~input:w.Workload.reference
      @ [
          ("warmup", string_of_int w.Workload.ref_offset);
          ("window", string_of_int w.Workload.ref_window);
        ]
      @ Ckey.policy_fragment ~name:policy ~params
      @ (if modal then sim_parts () else []))

(* Analysis knobs (long-running threshold, shaker pass budget) key the
   plan only when overridden, so the default-knob key stays byte-
   identical to what every non-ablation caller always used — an
   ablation's default point reads the object the headline experiments
   already wrote. The processor configuration is inside [base_parts],
   so a narrow-core plan separates for free. *)
let default_shaker_passes = 24

let plan_key ?(threshold = Mcd_profiling.Call_tree.default_threshold)
    ?(shaker = default_shaker_passes) ?(config = config) (w : Workload.t)
    ~context ~train ~slowdown_pct =
  let input, _ = analysis_input w ~train in
  Ckey.make ~kind:"plan"
    ~parts:
      (base_parts w ~config ~input
      @ [
          ("context", context.Context.name);
          ("slowdown", Printf.sprintf "%h" slowdown_pct);
          ("profile_insts", string_of_int analysis_profile_insts);
          ("trace_insts", string_of_int (analysis_trace_insts w ~train));
        ]
      @ (if threshold <> Mcd_profiling.Call_tree.default_threshold then
           [ ("threshold", string_of_int threshold) ]
         else [])
      @
      if shaker <> default_shaker_passes then
        [ ("shaker", string_of_int shaker) ]
      else [])

let oracle_key (w : Workload.t) =
  Ckey.make ~kind:"oracle"
    ~parts:
      (base_parts w ~config ~input:w.Workload.reference
      @ [
          ( "interval_insts",
            string_of_int Mcd_core.Oracle.default_interval_insts );
          ( "trace_insts",
            string_of_int (w.Workload.ref_offset + w.Workload.ref_window) );
        ])

(* Read-through the persistent store when one is configured; a cache
   problem of any kind degrades to plain recomputation inside
   [Cstore.cached]. [key] is a thunk so key construction costs nothing
   when caching is off. *)
let disk_cached ~key ~encode ~decode f =
  match Cstore.default () with
  | None -> f ()
  | Some store -> Cstore.cached store ~key:(key ()) ~encode ~decode f

(* Plans are stored in the Plan_io text format. Decoding rebuilds the
   training tree (cheap: a profiler walk, no timing simulation) and
   refuses — i.e. reports corruption, triggering recompute — if the
   stored plan does not round-trip cleanly against it. *)
let plan_codec ?threshold (w : Workload.t) ~context ~train =
  let decode payload =
    let tree = training_tree ?threshold w ~context ~train in
    match Mcd_core.Plan_io.of_string_result ~path:"<cache>" ~tree payload with
    | Result.Ok { Mcd_core.Plan_io.plan; warnings = [] } -> Result.Ok plan
    | Result.Ok { Mcd_core.Plan_io.warnings; _ } ->
        Result.Error
          (String.concat "; " (List.map Mcd_robust.Error.to_string warnings))
    | Result.Error errors ->
        Result.Error
          (String.concat "; " (List.map Mcd_robust.Error.to_string errors))
  in
  (Mcd_core.Plan_io.to_string, decode)

(* --- the paper's methods as policies ------------------------------------ *)

let input_tag = function `Train -> "train" | `Reference -> "ref"

(* The plan segment of an experiment: profiling walk + traced training
   run + shaker, cached independently of the production runs that
   consume the result, so an ablation that only perturbs the production
   side (or a knob that only perturbs the analysis side) recomputes one
   segment instead of the whole pipeline. Plans are always computed
   exactly — sampling never touches analysis quality. *)
let analyzed_plan ?threshold_insts ?shaker_passes ?(config = config)
    ?(slowdown_pct = default_slowdown_pct) (w : Workload.t) ~context ~train =
  let threshold =
    Option.value threshold_insts
      ~default:Mcd_profiling.Call_tree.default_threshold
  in
  let shaker = Option.value shaker_passes ~default:default_shaker_passes in
  let key () =
    plan_key ~threshold ~shaker ~config w ~context ~train ~slowdown_pct
  in
  memoize (plan_memo ()) (Ckey.canonical (key ())) @@ fun () ->
  let encode, decode = plan_codec ~threshold w ~context ~train in
  disk_cached ~key ~encode ~decode @@ fun () ->
  let input, _ = analysis_input w ~train in
  let trace_insts = analysis_trace_insts w ~train in
  let plan, _stats =
    Analyze.analyze ~program:w.Workload.program ~train:input ~context
      ~slowdown_pct ~threshold_insts:threshold ~shaker_passes:shaker
      ~trace_insts ~config ()
  in
  plan

let plan_for (w : Workload.t) ~context ~train = analyzed_plan w ~context ~train

(* The result path for shipped plans: rebuild the profiling tree from
   exactly the derivation Analyze/plan_for use ({!training_tree}), then
   load with typed diagnostics instead of exceptions. [train] selects
   which input the plan was trained on (shipped plans are normally
   [`Train]; [`Reference]-trained plans come from the oracle
   configuration). *)
let load_plan ?(train = `Train) (w : Workload.t) ~context ~path =
  let tree = training_tree w ~context ~train in
  Mcd_core.Plan_io.load_result ~path ~tree

let oracle_analysis (w : Workload.t) =
  memoize (oracle_memo ()) (w.Workload.name ^ "/oracle") @@ fun () ->
  disk_cached
    ~key:(fun () -> oracle_key w)
    ~encode:Mcd_core.Oracle.encode_analysis
    ~decode:Mcd_core.Oracle.decode_analysis
  @@ fun () ->
  Mcd_core.Oracle.analyze ~program:w.Workload.program
    ~input:w.Workload.reference
    ~trace_insts:(w.Workload.ref_offset + w.Workload.ref_window)
    ~config ()

(* The paper's methods are feed-forward policies bound to a workload:
   their parameters name the analysis behind them, and [create] plays
   the analysis back, reading it through the plan and oracle caches. A
   run that hits its own key never builds a controller, so it never
   pays for the analysis either. *)
let plan_policy plan =
  let digest = Digest.to_hex (Digest.string (Mcd_core.Plan_io.to_string plan)) in
  Policy.make ~name:"plan" ~doc:"an explicit plan, edited in"
    ~params:[ digest ] ~feedback:false
    (fun ?sink:_ () -> (Editor.edit plan).Editor.controller)

let offline_policy ?(slowdown_pct = default_slowdown_pct) (w : Workload.t) =
  Policy.make ~name:"offline"
    ~doc:"off-line oracle: the production run's own per-interval schedule"
    ~params:
      [
        Ckey.float_param slowdown_pct;
        string_of_int Mcd_core.Oracle.default_interval_insts;
      ]
    ~feedback:false
    (fun ?sink:_ () ->
      Mcd_core.Oracle.policy
        (Mcd_core.Oracle.schedule_of (oracle_analysis w) ~slowdown_pct))

let profile_plan ~slowdown_pct (w : Workload.t) ~context ~train =
  let base = plan_for w ~context ~train in
  if slowdown_pct = default_slowdown_pct then base
  else Plan.with_slowdown base ~slowdown_pct

let profile_policy ?(slowdown_pct = default_slowdown_pct) ?(train = `Train)
    ~context (w : Workload.t) =
  Policy.make ~name:"profile"
    ~doc:"profile-driven reconfiguration (edited binary)"
    ~params:
      [
        context.Context.name;
        input_tag train;
        Ckey.float_param slowdown_pct;
        string_of_int analysis_profile_insts;
        string_of_int (analysis_trace_insts w ~train);
      ]
    ~feedback:false
    (fun ?sink:_ () ->
      (Editor.edit (profile_plan ~slowdown_pct w ~context ~train))
        .Editor.controller)

let policy_of_name ?(context = Context.lf) ?slowdown_pct name w =
  match name with
  | "offline" -> Some (offline_policy ?slowdown_pct w)
  | "profile" -> Some (profile_policy ?slowdown_pct ~context w)
  | name -> Policies.by_name name

let policy_names = Policies.names () @ [ "offline"; "profile" ]

let contenders w =
  Policies.contenders ()
  @ [ offline_policy w; profile_policy ~context:Context.lf w ]

(* --- the one run path -------------------------------------------------- *)

(* Feedback policies are always simulated exactly, whatever the global
   [sim_mode]: a cycle-driven feedback loop (attack/decay, PID,
   cache-aware, util-prop all read queue occupancy or miss counters
   every interval) cannot observe skipped instances — under sampling it
   reacts to a sparse, unrepresentative subsequence of intervals and
   its frequency trajectory diverges from the exact run by tens of
   points. Feed-forward policies (baseline, fixed, plan, offline,
   profile) react to the marker stream, which sampling preserves, so
   they sample safely. Because a feedback result is mode-independent,
   so is its key ([~modal:false]): a sampled bench pass reuses the
   on-line runs the exact pass already cached. *)
let policy_key ?(config = config) (p : Policy.t) (w : Workload.t) =
  run_key ~modal:(not p.Policy.feedback) w ~config ~policy:p.Policy.name
    ~params:p.Policy.params

let encode_profiled (run, (counters : Editor.counters)) =
  Printf.sprintf "profiled 1\nreconfig_execs %d\ninstr_execs %d\n%s"
    counters.Editor.reconfig_execs counters.Editor.instr_execs
    (Metrics.encode run)

let decode_profiled payload =
  match
    Scanf.sscanf payload "profiled 1\nreconfig_execs %d\ninstr_execs %d\n%n"
      (fun reconfig_execs instr_execs n ->
        ({ Editor.reconfig_execs; instr_execs }, n))
  with
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
      Result.Error "bad profiled header"
  | counters, n ->
      Result.map
        (fun run -> (run, counters))
        (Metrics.decode (String.sub payload n (String.length payload - n)))

(* Table 4's dynamic point counts travel with the run only for the
   profile method: its stored payload is the "profiled 1" container,
   every other payload the bare run. *)
let run_codec (p : Policy.t) =
  if p.Policy.name = "profile" then (encode_profiled, decode_profiled)
  else
    ( (fun (run, _) -> Metrics.encode run),
      fun payload ->
        Result.map
          (fun run -> (run, { Editor.reconfig_execs = 0; instr_execs = 0 }))
          (Metrics.decode payload) )

let simulate ?sink ~config (p : Policy.t) (w : Workload.t) =
  let edited = Editor.count (p.Policy.create ?sink ()) in
  let sampling =
    if p.Policy.feedback || Option.is_some sink then None else sampling ()
  in
  let run =
    Pipeline.run ~controller:edited.Editor.controller ?sink ?sampling ~config
      ~warmup_insts:w.Workload.ref_offset ~program:w.Workload.program
      ~input:w.Workload.reference ~max_insts:w.Workload.ref_window ()
  in
  (run, edited.Editor.counters)

(* The end-of-run aggregates mirrored into a sink's registry as gauges,
   so an exported metrics.jsonl is self-contained. *)
let mirror_run sink (run : Metrics.run) =
  let m = Mcd_obs.Sink.metrics sink in
  let g name v = Mcd_obs.Metrics.set (Mcd_obs.Metrics.gauge m name) v in
  g "run.runtime_ps" (float_of_int run.Metrics.runtime_ps);
  g "run.energy_pj" run.Metrics.energy_pj;
  g "run.instructions" (float_of_int run.Metrics.instructions);
  g "run.cycles_front" (float_of_int run.Metrics.cycles_front);
  g "run.sync_crossings" (float_of_int run.Metrics.sync_crossings);
  g "run.sync_penalties" (float_of_int run.Metrics.sync_penalties);
  g "run.reconfigurations" (float_of_int run.Metrics.reconfigurations)

(* Every production run: memoized on its store key's canonical line
   (which names the policy with all parameters, the workload, the config
   and, for modal runs, the simulation mode), read through the store,
   simulated only on a miss. A sink is a side channel a cached result
   would leave empty, so an observed run always simulates, exactly; an
   attached sink does not change the run (test_obs pins the bytes), so
   its result then serves the exact-mode key like any other. *)
let counted_run ?(config = config) ?sink (p : Policy.t) (w : Workload.t) =
  let encode, decode = run_codec p in
  match sink with
  | None ->
      let key = policy_key ~config p w in
      memoize (memo ()) (Ckey.canonical key) @@ fun () ->
      disk_cached ~key:(fun () -> key) ~encode ~decode @@ fun () ->
      simulate ~config p w
  | Some sink ->
      let key =
        run_key ~modal:false w ~config ~policy:p.Policy.name
          ~params:p.Policy.params
      in
      let ((run, _) as result) = simulate ~sink ~config p w in
      mirror_run sink run;
      Hashtbl.replace (memo ()) (Ckey.canonical key) result;
      Option.iter
        (fun store -> Cstore.add store key (encode result))
        (Cstore.default ());
      result

let policy_run ?config ?sink p w = fst (counted_run ?config ?sink p w)

let config_baseline ?config w = policy_run ?config Policies.baseline w
let baseline w = config_baseline w

let single_clock w ~mhz =
  config_baseline ~config:(Config.single_clock ~mhz) w

let plan_run ?config w ~plan = policy_run ?config (plan_policy plan) w
let offline_run ?slowdown_pct w = policy_run (offline_policy ?slowdown_pct w) w

let online_run ?params w =
  policy_run (Mcd_control.Attack_decay.policy ?params ()) w

let profile_run ?(slowdown_pct = default_slowdown_pct) w ~context ~train =
  let run, counters =
    counted_run (profile_policy ~slowdown_pct ~train ~context w) w
  in
  (* lazy on purpose: a warm disk hit must not pay [plan_for]'s profiler
     walk for a plan most callers never read *)
  { run; plan = lazy (profile_plan ~slowdown_pct w ~context ~train); counters }

(* The four-method variant perfbench/cold.ml still speaks. *)
let method_policy ?context ?slowdown_pct m w =
  let name =
    match m with
    | `Baseline -> "baseline"
    | `Online -> "online"
    | `Offline -> "offline"
    | `Profile -> "profile"
  in
  Option.get (policy_of_name ?context ?slowdown_pct name w)

let observed_run ?(policy = `Profile) ?context ~sink w =
  policy_run ~sink (method_policy ?context policy w) w

let request_key w ~policy ~context ~slowdown_pct =
  policy_key (method_policy ~context ~slowdown_pct policy w) w

(* The paper's "global" bar: a single-clock processor scaled so that its
   total runtime matches the off-line algorithm's. A first-order 1/f
   estimate seeds the search; the chosen frequency is the slowest step
   whose runtime still meets the target (or fmax when nothing does). *)
let global_dvs_run (w : Workload.t) ~target_runtime_ps =
  let full = single_clock w ~mhz:Freq.fmax_mhz in
  let estimate =
    float_of_int Freq.fmax_mhz
    *. float_of_int full.Metrics.runtime_ps
    /. float_of_int (max 1 target_runtime_ps)
  in
  let start_mhz = Freq.clamp (int_of_float estimate) in
  let run_at mhz = single_clock w ~mhz in
  let meets mhz = (run_at mhz).Metrics.runtime_ps <= target_runtime_ps in
  (* walk up until the target is met (the 1/f estimate can land low) *)
  let rec up mhz =
    if meets mhz || mhz >= Freq.fmax_mhz then mhz
    else up (Freq.clamp (mhz + Freq.step_mhz))
  in
  let mhz0 = up start_mhz in
  (* then walk down while a lower step still meets it: the estimate can
     just as well land several steps high, and stopping after a single
     probe would report a faster (less energy-efficient) frequency than
     the scaling target permits *)
  let rec down mhz =
    if mhz <= Freq.fmin_mhz then mhz
    else
      let lower = Freq.clamp (mhz - Freq.step_mhz) in
      if meets lower then down lower else mhz
  in
  let final_mhz = if meets mhz0 then down mhz0 else mhz0 in
  (run_at final_mhz, final_mhz)
