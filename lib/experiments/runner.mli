(** Memoized execution of (benchmark x policy) simulations.

    Every figure compares policies against the MCD baseline on the
    reference input; the same runs feed several figures, so results are
    cached per benchmark. All analyses profile on the training input
    except the off-line oracle, which — exactly as in the paper — is the
    same pipeline given the production run as its "prior identical
    run". *)

type comparison = {
  degradation_pct : float;
  savings_pct : float;
  ed_improvement_pct : float;
}

val compare_runs :
  baseline:Mcd_power.Metrics.run -> Mcd_power.Metrics.run -> comparison

val set_jobs : int -> unit
(** Number of OCaml domains the experiment sweeps fan out over
    (default 1 = fully sequential; values below 1 are clamped to 1).
    Simulation results are deterministic per workload and
    {!map_workloads} preserves input order, so any jobs count produces
    byte-identical tables. *)

val get_jobs : unit -> int

val par_map : ('a -> 'b) -> 'a list -> 'b list
(** [Mcd_util.Par.map] at the configured jobs count, preserving input
    order. Memo tables are domain-local ([Domain.DLS]), so worker
    domains memoize within their share of a sweep and the caches stay
    race-free. *)

val map_workloads :
  (Mcd_workloads.Workload.t -> 'a) -> Mcd_workloads.Workload.t list -> 'a list
(** {!par_map} — named entry point for the common per-benchmark
    fan-out. *)

val default_slowdown_pct : float
(** 7.0, the paper's headline operating point. *)

(** {2 Simulation mode}

    Production runs (baseline, single-clock, offline, online, profile,
    {!plan_run}) execute either exactly or under
    {!Mcd_cpu.Sampler} phase sampling. The mode is process-wide
    configuration like {!set_jobs}: the bench/CLI drivers set it once.
    Sampled results are cached under distinct keys (a ["sim"] part on
    the disk key, a suffix on the memo keys), so the two modes never
    serve each other's numbers — and in [Exact] mode every key is
    byte-identical to the pre-sampling layout. Plan and oracle analyses
    are always computed exactly. So is the on-line policy
    ({!online_run}): its cycle-driven feedback controller cannot
    observe skipped instances and diverges under sampling, so it runs
    exactly in every mode and keeps mode-independent keys — a sampled
    pass reuses on-line results the exact pass already cached. *)

type sim_mode = Exact | Sampled of Mcd_cpu.Sampler.params

val set_sim_mode : sim_mode -> unit
val get_sim_mode : unit -> sim_mode

val profiler_walks : unit -> int
(** Number of full profiler walks ({!training_tree} calls — plan cache
    decodes, plan loads, coverage tables) performed by this process so
    far. Warm-path regression tests pin that a disk hit performs
    none. *)

val analysis_profile_insts : int
(** 400_000: the instruction window every profiler walk (plan analysis,
    plan loading, coverage tables, the CLI's tree command) uses to build
    call trees. A single shared constant — divergent copies are how
    saved plans stop matching their rebuilt trees. *)

val analysis_input :
  Mcd_workloads.Workload.t ->
  train:[ `Train | `Reference ] ->
  Mcd_isa.Program.input * int
(** The (input, window) pair an analysis over the given training
    selector sees. *)

val analysis_trace_insts :
  Mcd_workloads.Workload.t -> train:[ `Train | `Reference ] -> int
(** Instructions the timing trace behind a plan covers:
    [min window 120_000] of the selected input, exactly as
    {!plan_for} passes to the analyzer. *)

val training_tree :
  ?threshold:int ->
  Mcd_workloads.Workload.t ->
  context:Mcd_profiling.Context.t ->
  train:[ `Train | `Reference ] ->
  Mcd_profiling.Call_tree.t
(** Rebuild the profiling call tree for the selected training input with
    the shared window derivation — the tree {!load_plan} verifies plan
    fingerprints against. [threshold] (default
    {!Mcd_profiling.Call_tree.default_threshold}) is the long-running
    cutoff, overridden by threshold-ablation plans. *)

val plan_for :
  Mcd_workloads.Workload.t ->
  context:Mcd_profiling.Context.t ->
  train:[ `Train | `Reference ] ->
  Mcd_core.Plan.t
(** Off-line analysis at {!default_slowdown_pct}; cached per
    (benchmark, context, input). [`Reference] training is the off-line
    oracle. Equal to {!analyzed_plan} with every knob at its
    default. *)

val analyzed_plan :
  ?threshold_insts:int ->
  ?shaker_passes:int ->
  ?config:Mcd_cpu.Config.t ->
  ?slowdown_pct:float ->
  Mcd_workloads.Workload.t ->
  context:Mcd_profiling.Context.t ->
  train:[ `Train | `Reference ] ->
  Mcd_core.Plan.t
(** The analysis {e segment} of an experiment — profiling walk, traced
    training run, shaker, thresholding — disk-cached on its own key:
    workload x config x analysis knobs, with knob parts present only
    when overridden so the all-defaults key is byte-identical to
    {!plan_for}'s. An ablation that perturbs one knob recomputes this
    segment only; production runs are keyed separately
    ({!plan_run}). Always computed exactly, independent of the
    simulation mode. *)

val load_plan :
  ?train:[ `Train | `Reference ] ->
  Mcd_workloads.Workload.t ->
  context:Mcd_profiling.Context.t ->
  path:string ->
  (Mcd_core.Plan_io.loaded, Mcd_robust.Error.t list) result
(** Load a previously shipped plan against a freshly rebuilt training
    tree ({!training_tree}; [train] defaults to [`Train]), reporting
    typed diagnostics rather than raising — the entry point the CLI and
    the robustness campaign use. Because the tree derivation is shared
    with {!plan_for}, a plan saved from [plan_for w ~context ~train]
    always round-trips warning-free. *)

(** {2 The paper's methods as policies}

    Feed-forward {!Mcd_control.Policy.t} values bound to a workload:
    [create] plays back the oracle schedule or the edited plan, read
    through the oracle and plan caches, so a run that hits its own key
    never pays for the analysis. *)

val offline_policy :
  ?slowdown_pct:float -> Mcd_workloads.Workload.t -> Mcd_control.Policy.t
(** The interval-based off-line oracle ({!Mcd_core.Oracle}): the
    production run's own per-interval schedule, played back. *)

val profile_policy :
  ?slowdown_pct:float ->
  ?train:[ `Train | `Reference ] ->
  context:Mcd_profiling.Context.t ->
  Mcd_workloads.Workload.t ->
  Mcd_control.Policy.t
(** Profile-driven reconfiguration: the binary edited per the plan for
    [context] trained on [train] (default [`Train]), re-thresholded to
    [slowdown_pct]. Its params include the workload's trace window. *)

val plan_policy : Mcd_core.Plan.t -> Mcd_control.Policy.t
(** The binary edited per an explicit plan, keyed by its content
    digest. *)

val policy_of_name :
  ?context:Mcd_profiling.Context.t ->
  ?slowdown_pct:float ->
  string ->
  Mcd_workloads.Workload.t ->
  Mcd_control.Policy.t option
(** A {!Mcd_control.Policies} registry label, ["offline"] or
    ["profile"] (in [context], default L+F). Parameters a policy does
    not consume are ignored, so equivalent requests share a key. *)

val policy_names : string list
(** The labels {!policy_of_name} resolves: the registry's, then
    ["offline"] and ["profile"]. *)

val contenders : Mcd_workloads.Workload.t -> Mcd_control.Policy.t list
(** The tournament field on one workload: the registry's contenders,
    then the off-line oracle and profile L+F. *)

(** {2 The one run path} *)

val policy_run :
  ?config:Mcd_cpu.Config.t ->
  ?sink:Mcd_obs.Sink.t ->
  Mcd_control.Policy.t ->
  Mcd_workloads.Workload.t ->
  Mcd_power.Metrics.run
(** Every production run: the reference input under a fresh controller
    from the policy's [create], at [config] (default the Table-1 core),
    memoized under {!policy_key}, read through the persistent store and
    simulated only on a miss. Feedback policies always simulate exactly
    (their loops diverge under phase sampling) and key
    mode-independently; feed-forward policies follow {!sim_mode}.

    With [sink] the run always simulates, exactly, filling the sink and
    mirroring the run's aggregates into its registry as [run.*] gauges.
    A sink does not change the run, so the result is then memoized and
    stored under the exact-mode key. *)

val policy_key :
  ?config:Mcd_cpu.Config.t ->
  Mcd_control.Policy.t ->
  Mcd_workloads.Workload.t ->
  Mcd_cache.Key.t
(** The persistent-store key {!policy_run} caches under, naming the
    policy by its canonical {!Mcd_cache.Key.policy_fragment}. A served
    request's digest is this key's. *)

val baseline : Mcd_workloads.Workload.t -> Mcd_power.Metrics.run
(** MCD, all domains at full speed, reference input. Cached. *)

val config_baseline :
  ?config:Mcd_cpu.Config.t ->
  Mcd_workloads.Workload.t ->
  Mcd_power.Metrics.run
(** {!baseline} at an explicit processor configuration (default: the
    Table-1 core, where it shares {!baseline}'s cache objects). The
    narrow-core ablation's baseline segment. *)

val single_clock : Mcd_workloads.Workload.t -> mhz:int -> Mcd_power.Metrics.run
(** Globally synchronous run at [mhz]. Cached per frequency. *)

val plan_run :
  ?config:Mcd_cpu.Config.t ->
  Mcd_workloads.Workload.t ->
  plan:Mcd_core.Plan.t ->
  Mcd_power.Metrics.run
(** {!policy_run} of {!plan_policy}: ablation points whose knob did
    not change the plan share one cached run. *)

val offline_run :
  ?slowdown_pct:float -> Mcd_workloads.Workload.t -> Mcd_power.Metrics.run
(** {!policy_run} of {!offline_policy}. Cached at every slowdown. *)

val online_run :
  ?params:Mcd_control.Attack_decay.params -> Mcd_workloads.Workload.t ->
  Mcd_power.Metrics.run
(** {!policy_run} of {!Mcd_control.Attack_decay.policy}. *)

type profiled_run = {
  run : Mcd_power.Metrics.run;
  plan : Mcd_core.Plan.t Lazy.t;
      (** Forcing the plan on a warm disk hit decodes the cached plan —
          a decode that rebuilds the training call tree (one full
          profiler walk). Consumers that only need [run] never pay
          it. *)
  counters : Mcd_core.Editor.counters;
      (** Table 4's dynamic points, by {!Mcd_core.Editor.count} *)
}

val profile_run :
  ?slowdown_pct:float ->
  Mcd_workloads.Workload.t ->
  context:Mcd_profiling.Context.t ->
  train:[ `Train | `Reference ] ->
  profiled_run
(** {!policy_run} of {!profile_policy}, with its plan and points. Each
    call builds a fresh record around the memoized run. *)

(** {2 The method variant perfbench still calls} *)

val observed_run :
  ?policy:[ `Baseline | `Online | `Offline | `Profile ] ->
  ?context:Mcd_profiling.Context.t ->
  sink:Mcd_obs.Sink.t ->
  Mcd_workloads.Workload.t ->
  Mcd_power.Metrics.run
(** {!policy_run} [~sink] of the method's {!policy_of_name} policy
    (default [`Profile] in [context], default L+F). *)

val request_key :
  Mcd_workloads.Workload.t ->
  policy:[ `Baseline | `Offline | `Online | `Profile ] ->
  context:Mcd_profiling.Context.t ->
  slowdown_pct:float ->
  Mcd_cache.Key.t
(** {!policy_key} of the method's {!policy_of_name} policy. *)

val global_dvs_run :
  Mcd_workloads.Workload.t -> target_runtime_ps:int -> Mcd_power.Metrics.run * int
(** Single-clock processor scaled to finish in approximately
    [target_runtime_ps] (the paper's "global" baseline): picks the
    slowest frequency step whose runtime still meets the target, or
    full speed when even that cannot. Returns the run and the chosen
    frequency. *)

val clear_caches : unit -> unit
(** Reset the calling domain's in-memory memo tables. The persistent
    store (if {!Mcd_cache.Store.default} is configured) is deliberately
    untouched: clearing memos then re-running is exactly the warm-cache
    path. *)
