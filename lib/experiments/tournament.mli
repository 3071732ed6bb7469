(** The policy tournament: every contender raced on the same
    benchmarks, scored on the paper's three axes.

    The contenders on a workload ({!Runner.contenders}: the
    {!Mcd_control.Policies} registry, the off-line oracle and profile
    L+F) are each simulated through {!Runner.policy_run} (so every cell
    is cached under the policy's own canonical key), compared against
    the shared MCD baseline, and ranked by mean energy x delay
    improvement. Because ED improvement is a scalarisation of the other
    two axes, the report also flags the degradation/savings Pareto
    frontier: a policy nobody beats on both axes at once survives even
    if its ED rank is middling. *)

type entry = {
  label : string;  (** the policy's label, its identity in the report *)
  name : string;  (** the policy's cache-key name *)
  params : string list option;
      (** the canonical params, when the policy ran with the same ones
          on every workload; [None] for a workload-bound policy whose
          params differ (profile's trace window is the workload's
          own) *)
  per_workload : (string * Runner.comparison) list;
      (** per-benchmark scores, in workload order *)
  mean : Runner.comparison;  (** unweighted mean over the workloads *)
  rank : int;  (** 1-based, by mean ED improvement (descending) *)
  pareto : bool;
      (** no other entry is at-least-as-good on both degradation and
          savings and strictly better on one *)
}

type t = { workloads : string list; entries : entry list }

val quick_names : string list
(** The bench harness's --quick subset: one representative per suite
    corner. *)

val quick_workloads : unit -> Mcd_workloads.Workload.t list

val run : ?workloads:Mcd_workloads.Workload.t list -> unit -> t
(** Race {!Runner.contenders}[ w] on each of [workloads] (default the
    full 19-benchmark suite), fanning out per workload over
    {!Runner.map_workloads}. Entries follow the labels of the first
    workload's contenders. *)

val render : t -> string
(** The ranked human table. *)

val to_json : t -> Mcd_obs.Json.t
(** Machine-readable report, schema ["mcd-dvfs-tournament/1"]: the
    workload list plus one object per entry with rank, policy identity
    (label, name, canonical params), Pareto flag, the three mean axes
    and the per-workload breakdown. An entry whose params differ across
    workloads has no ["params"]. *)
