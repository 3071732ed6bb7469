(** The end-to-end off-line analysis driver: phases 1–3 of the paper.

    1. Profile the training run (an instrumented walk, no timing) and
       build the call tree; identify long-running nodes.
    2. Re-run the training input through the full-speed pipeline with a
       trace probe; collect each long-running node's primitive-event
       segments and shake their dependence DAGs into per-domain
       frequency histograms.
    3. Threshold the histograms at the tolerated slowdown into a
       {!Plan.t}.

    Phase 4 — editing — is {!Editor.edit}. Running the plan with
    training input = production input is exactly the paper's "off-line
    (perfect future knowledge)" configuration. *)

type shaken = {
  result : Shaker.result;  (** per-domain histograms and pass counts *)
  paths : Path_model.segment;  (** the DAG's path signatures *)
  duration_ps : float;
      (** full-speed span of the DAG, first event start to last event
          end *)
}

val shake :
  ?max_passes:int ->
  config:Mcd_cpu.Config.t ->
  Mcd_cpu.Probe.event array ->
  shaken option
(** The analysis kernel every off-line decision starts from: build the
    dependence DAG of one trace segment or interval (events sorted by
    (seq, stage), as the collectors hand them off), run the shaker on
    it ([max_passes] as {!Shaker.run}) and take its path signatures and
    full-speed duration. [None] below 50 events, too few for a
    meaningful DAG. {!analyze} calls it per recorded segment,
    {!Oracle.analyze} per interval. *)

type stats = {
  profiled_insts : int;
  traced_insts : int;
  long_nodes : int;
  segments_shaken : int;
  events_shaken : int;
  shaker_passes_total : int;
}

val analyze :
  program:Mcd_isa.Program.t ->
  train:Mcd_isa.Program.input ->
  context:Mcd_profiling.Context.t ->
  ?slowdown_pct:float ->
  ?threshold_insts:int ->
  ?profile_insts:int ->
  ?trace_insts:int ->
  ?shaker_passes:int ->
  ?config:Mcd_cpu.Config.t ->
  unit ->
  Plan.t * stats
(** Defaults: slowdown 7%, long-running threshold 10_000 instructions,
    profile window 400_000 instructions, trace window 120_000, the
    Table-1 MCD configuration. Segments {!shake} declines (under 50
    events) are skipped. *)
