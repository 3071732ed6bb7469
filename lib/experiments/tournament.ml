module Workload = Mcd_workloads.Workload
module Suite = Mcd_workloads.Suite
module Policy = Mcd_control.Policy
module Table = Mcd_util.Table
module Stats = Mcd_util.Stats
module Json = Mcd_obs.Json

type entry = {
  label : string;
  name : string;
  params : string list option;
  per_workload : (string * Runner.comparison) list;
  mean : Runner.comparison;
  rank : int;
  pareto : bool;
}

type t = { workloads : string list; entries : entry list }

(* The same five-benchmark subset the bench harness's --quick mode
   sweeps: one representative per suite corner (MediaBench int, GSM,
   video, SPEC int memory-bound, SPEC fp). *)
let quick_names = [ "adpcm decode"; "gsm encode"; "mpeg2 decode"; "mcf"; "applu" ]

let quick_workloads () =
  List.filter_map Suite.find_opt quick_names

let mean_of comparisons =
  {
    Runner.degradation_pct =
      Stats.mean (List.map (fun c -> c.Runner.degradation_pct) comparisons);
    savings_pct =
      Stats.mean (List.map (fun c -> c.Runner.savings_pct) comparisons);
    ed_improvement_pct =
      Stats.mean (List.map (fun c -> c.Runner.ed_improvement_pct) comparisons);
  }

(* [a] dominates [b] when it is no worse on both Pareto axes (less
   degradation, more savings) and strictly better on at least one. ED
   improvement is the ranking metric, not a Pareto axis: it is already
   a scalarisation of the other two. *)
let dominates a b =
  a.Runner.degradation_pct <= b.Runner.degradation_pct
  && a.Runner.savings_pct >= b.Runner.savings_pct
  && (a.Runner.degradation_pct < b.Runner.degradation_pct
     || a.Runner.savings_pct > b.Runner.savings_pct)

let run ?(contenders = Runner.contenders) ?(workloads = Suite.all) () =
  (* fan out per workload: a worker simulates every contender on its
     benchmark, so the baseline run is computed once per worker and the
     long pole (one slow benchmark) bounds the sweep *)
  let columns =
    Runner.map_workloads
      (fun w ->
        let baseline = Runner.baseline w in
        ( w.Workload.name,
          List.map
            (fun (p : Policy.t) ->
              ( p.Policy.label,
                (p, Runner.compare_runs ~baseline (Runner.policy_run p w)) ))
            (contenders w) ))
      workloads
  in
  let entry (label, ((p : Policy.t), _)) =
    let cells =
      List.map (fun (wname, cells) -> (wname, List.assoc label cells)) columns
    in
    (* a policy bound to each workload (profile's trace window is the
       workload's own) has no params of its own to report *)
    let shared =
      List.for_all
        (fun (_, ((q : Policy.t), _)) -> q.Policy.params = p.Policy.params)
        cells
    in
    let per_workload = List.map (fun (wname, (_, c)) -> (wname, c)) cells in
    {
      label;
      name = p.Policy.name;
      params = (if shared then Some p.Policy.params else None);
      per_workload;
      mean = mean_of (List.map snd per_workload);
      rank = 0;
      pareto = false;
    }
  in
  let unranked =
    match columns with [] -> [] | (_, first) :: _ -> List.map entry first
  in
  let sorted =
    List.sort
      (fun a b ->
        match
          compare b.mean.Runner.ed_improvement_pct
            a.mean.Runner.ed_improvement_pct
        with
        | 0 -> compare a.label b.label
        | c -> c)
      unranked
  in
  let entries =
    List.mapi
      (fun i e ->
        let pareto =
          not
            (List.exists
               (fun o -> o != e && dominates o.mean e.mean)
               sorted)
        in
        { e with rank = i + 1; pareto })
      sorted
  in
  { workloads = List.map (fun w -> w.Workload.name) workloads; entries }

let render t =
  let header =
    [ "rank"; "policy"; "degradation"; "energy savings"; "ExD improvement"; "pareto" ]
  in
  let rows =
    List.map
      (fun e ->
        [
          string_of_int e.rank;
          e.label;
          Table.fmt_pct e.mean.Runner.degradation_pct;
          Table.fmt_pct e.mean.Runner.savings_pct;
          Table.fmt_pct e.mean.Runner.ed_improvement_pct;
          (if e.pareto then "*" else "");
        ])
      t.entries
  in
  Printf.sprintf
    "Tournament: %d policies x %d workloads (mean vs MCD baseline; * = on \
     the degradation/savings Pareto frontier)\n%s"
    (List.length t.entries)
    (List.length t.workloads)
    (Table.render ~header ~rows ())

let comparison_fields c =
  [
    ("degradation_pct", Json.Float c.Runner.degradation_pct);
    ("savings_pct", Json.Float c.Runner.savings_pct);
    ("ed_improvement_pct", Json.Float c.Runner.ed_improvement_pct);
  ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String "mcd-dvfs-tournament/1");
      ("workloads", Json.List (List.map (fun w -> Json.String w) t.workloads));
      ( "entries",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 ([
                    ("rank", Json.Int e.rank);
                    ("policy", Json.String e.label);
                    ("name", Json.String e.name);
                  ]
                 @ Option.to_list
                     (Option.map
                        (fun ps ->
                          ("params", Json.List (List.map (fun p -> Json.String p) ps)))
                        e.params)
                 @ [ ("pareto", Json.Bool e.pareto) ]
                 @ comparison_fields e.mean
                 @ [
                     ( "per_workload",
                       Json.List
                         (List.map
                            (fun (wname, c) ->
                              Json.Obj
                                (("workload", Json.String wname)
                                :: comparison_fields c))
                            e.per_workload) );
                   ]))
             t.entries) );
    ]
