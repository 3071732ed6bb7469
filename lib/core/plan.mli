(** A reconfiguration plan: the output of off-line analysis.

    Maps every long-running call-tree node to the domain frequencies
    chosen by slowdown thresholding, and every long-running *static
    unit* (subroutine or loop) to a merged setting for the run-time
    schemes that ignore calling context (L+F and F — when instances of a
    unit reached over different paths get different per-node settings,
    the merged setting is thresholded over their combined histograms,
    which is what "choosing the average frequency of all instances"
    amounts to).

    Retains the per-node histograms, so sweeping the slowdown threshold
    (Figures 10/11) re-runs only the cheap thresholding step, not the
    shaker. *)

type t = {
  tree : Mcd_profiling.Call_tree.t;
  context : Mcd_profiling.Context.t;  (** the run-time context *)
  slowdown_pct : float;
  node_settings : (int, Mcd_domains.Reconfig.setting) Hashtbl.t;
  unit_settings :
    (Mcd_profiling.Call_tree.static_unit, Mcd_domains.Reconfig.setting)
    Hashtbl.t;
  node_histograms : (int, Mcd_util.Histogram.t array) Hashtbl.t;
  node_paths : (int, Path_model.t) Hashtbl.t;
}

val make :
  tree:Mcd_profiling.Call_tree.t ->
  context:Mcd_profiling.Context.t ->
  slowdown_pct:float ->
  node_histograms:(int * Mcd_util.Histogram.t array) list ->
  ?node_paths:(int * Path_model.t) list ->
  unit ->
  t
(** {!decide}s every long node with a histogram and every static unit
    over the histograms and path models of its long-node instances,
    merged in long-node order; keys with no histogram get full-speed
    settings. Then {!clamp_swings} runs once over the nodes and once over
    the units, each key's duration being the mean full-speed length of
    its path model's segments. *)

val empty_histograms : unit -> Mcd_util.Histogram.t array
(** One empty histogram per domain, one bin per frequency step: the
    accumulator for a node's or unit's merged shaker output. *)

val decide :
  slowdown_pct:float ->
  Mcd_util.Histogram.t array ->
  Path_model.t ->
  Mcd_domains.Reconfig.setting
(** The frequency decision for one node, static unit or oracle interval:
    slowdown thresholding of the per-domain histograms (the paper's
    §3.3), then {!Path_model.refine}, which raises domains until the
    critical-path estimate respects the delta (the delay-calculation
    step). With {!Path_model.empty} the refine returns the thresholded
    setting unchanged. *)

val swing_allowance_mhz : duration_ps:float -> f_target_mhz:int -> int
(** Transition-aware swing bound. Frequency slews at 73.3 ns/MHz, so a
    node entered with a domain [delta] MHz below its chosen point loses
    roughly [delta^2 x 36.65 / f] ns of that domain's work to the ramp.
    This returns the largest [delta] whose ramp loss stays within a
    small fraction of the node's duration. {!clamp_swings} keeps every
    per-domain setting within this allowance of the maximum for that
    domain, so no reconfiguration can trigger a ramp the destination
    node cannot amortize. (The paper never needed this:
    its phases were millions of instructions, far longer than the 55 us
    full-range transition; our scaled-down windows are not.) *)

val clamp_swings :
  (Mcd_domains.Reconfig.setting * float * bool) list ->
  Mcd_domains.Reconfig.setting list
(** Transition-aware swing clamping over [(setting, duration_ps,
    contributes)] entries, in order: each domain of each setting is
    raised to at least the per-domain maximum over the contributing
    entries minus that entry's {!swing_allowance_mhz}. A zero duration
    allows no swing, so the entry runs at the maximum. Plans clamp
    their nodes and their units this way, and {!Oracle.schedule_of} its
    intervals. *)

val setting_for_node : t -> int -> Mcd_domains.Reconfig.setting option
(** [Some] exactly for long-running nodes. *)

val setting_for_unit :
  t -> Mcd_profiling.Call_tree.static_unit -> Mcd_domains.Reconfig.setting option

val with_slowdown : t -> slowdown_pct:float -> t
(** Re-threshold the retained histograms at a different delta. *)

val static_reconfig_points : t -> int
(** Distinct static units carrying reconfiguration code. *)

val static_instr_points : t -> int
(** Distinct static units (and, under site-tracking contexts, call
    sites) carrying any inserted code, reconfiguration included. *)

val pp : Format.formatter -> t -> unit
