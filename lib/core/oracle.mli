(** The interval-based off-line oracle (the paper's "off-line" bars,
    after its reference [30]).

    Unlike profile-driven reconfiguration, the oracle ignores program
    structure: it divides the production run into fixed instruction
    intervals, analyses each interval's dependence DAG with perfect
    knowledge ({!Analyze.shake}, then the plans' own decision stages),
    and plays the resulting per-interval schedule back
    during the measured run, reconfiguring at interval boundaries. *)

type interval_data = {
  histograms : Mcd_util.Histogram.t array option;
      (** [None] when the interval retired too few events to analyse *)
  paths : Path_model.t;
  duration_ps : float;
}

type analysis = { interval_insts : int; intervals : interval_data array }
(** Retained per-interval shaker output (histograms, path models,
    durations), so schedules at different slowdown budgets are cheap.
    Exposed concretely so the result cache can serialize it. *)

val default_interval_insts : int
(** The [interval_insts] default used by {!analyze} (10_000); exported so
    cache keys can name the effective interval size explicitly. *)

val encode_analysis : analysis -> string
(** Canonical text rendering (floats in lossless [%h] form, [end]
    trailer); [decode_analysis] inverts it bit for bit. *)

val decode_analysis : string -> (analysis, string) result
(** Parse an {!encode_analysis} payload. Any malformation — bad header,
    truncation, field mismatch — yields [Error reason]; never raises. *)

val analyze :
  program:Mcd_isa.Program.t ->
  input:Mcd_isa.Program.input ->
  ?interval_insts:int ->
  ?trace_insts:int ->
  ?config:Mcd_cpu.Config.t ->
  unit ->
  analysis
(** Run the input at full speed and analyse each interval. Defaults:
    10_000-instruction intervals, 120_000 traced instructions. For a
    production run with a warm-up, trace warm-up plus window (instruction
    numbering counts from the start of the run). *)

type schedule = {
  interval_insts : int;
  settings : Mcd_domains.Reconfig.setting array;  (** per interval *)
}

val schedule_of : analysis -> slowdown_pct:float -> schedule
(** {!Plan.decide} per interval with a histogram (full speed without
    one), then {!Plan.clamp_swings} across the schedule (consecutive
    intervals are exactly the back-to-back phases that ramp into each
    other): an interval contributes to the per-domain maxima when its
    measured duration is positive, and its allowance follows that
    duration. *)

val policy : schedule -> Mcd_cpu.Controller.t
(** Play the schedule back: at each sampling point the controller writes
    the setting of the interval containing the current instruction.
    Instructions beyond the schedule run at the last setting. *)
