module Call_tree = Mcd_profiling.Call_tree
module Context = Mcd_profiling.Context
module Histogram = Mcd_util.Histogram
module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq
module Reconfig = Mcd_domains.Reconfig

type t = {
  tree : Call_tree.t;
  context : Context.t;
  slowdown_pct : float;
  node_settings : (int, Reconfig.setting) Hashtbl.t;
  unit_settings : (Call_tree.static_unit, Reconfig.setting) Hashtbl.t;
  node_histograms : (int, Histogram.t array) Hashtbl.t;
  node_paths : (int, Path_model.t) Hashtbl.t;
}

let empty_histograms () =
  Array.init Domain.count (fun _ -> Histogram.create ~bins:Freq.num_steps)

(* Fraction of a node's duration that may be lost to an entry ramp. *)
let ramp_budget = 0.06

let swing_allowance_mhz ~duration_ps ~f_target_mhz =
  if duration_ps <= 0.0 then 0
  else begin
    let duration_ns = duration_ps /. 1000.0 in
    let slew = Mcd_domains.Dvfs.slew_ns_per_mhz in
    (* ramp loss ~ delta^2 * (slew/2) / f  <=  ramp_budget * duration *)
    let delta =
      sqrt
        (ramp_budget *. duration_ns *. float_of_int f_target_mhz
        /. (slew /. 2.0))
    in
    int_of_float delta
  end

let avg_duration_ps (pm : Path_model.t) =
  match pm.Path_model.segments with
  | [] -> 0.0
  | segs ->
      List.fold_left (fun a s -> a +. s.Path_model.base_ps) 0.0 segs
      /. float_of_int (List.length segs)

let decide ~slowdown_pct hists paths =
  Path_model.refine paths
    (Threshold.setting_of_histograms hists ~slowdown_pct)
    ~slowdown_pct

let clamp_swings entries =
  let domain_max = Array.make Domain.count Freq.fmin_mhz in
  List.iter
    (fun ((s : Reconfig.setting), _, contributes) ->
      if contributes then
        Array.iteri
          (fun i f -> if f > domain_max.(i) then domain_max.(i) <- f)
          s)
    entries;
  List.map
    (fun ((s : Reconfig.setting), duration_ps, _) ->
      Array.mapi
        (fun i f ->
          let allowance =
            swing_allowance_mhz ~duration_ps ~f_target_mhz:domain_max.(i)
          in
          Freq.clamp (max f (domain_max.(i) - allowance)))
        s)
    entries

let make ~tree ~context ~slowdown_pct ~node_histograms ?(node_paths = []) () =
  let hist_tbl = Hashtbl.create 32 in
  List.iter (fun (id, h) -> Hashtbl.replace hist_tbl id h) node_histograms;
  let paths_tbl = Hashtbl.create 32 in
  List.iter (fun (id, p) -> Hashtbl.replace paths_tbl id p) node_paths;
  let long_nodes = Call_tree.long_nodes tree in
  (* per-static-unit histograms and path models, merged in long-node
     order *)
  let unit_hists = Hashtbl.create 32 in
  let unit_paths = Hashtbl.create 32 in
  List.iter
    (fun (n : Call_tree.node) ->
      match Call_tree.static_unit_of n.Call_tree.kind with
      | None -> ()
      | Some u ->
          Option.iter
            (fun hists ->
              let acc =
                match Hashtbl.find_opt unit_hists u with
                | Some a -> a
                | None ->
                    let a = empty_histograms () in
                    Hashtbl.add unit_hists u a;
                    a
              in
              Array.iteri
                (fun i h -> Histogram.merge_into ~dst:acc.(i) ~src:h)
                hists)
            (Hashtbl.find_opt hist_tbl n.Call_tree.id);
          Option.iter
            (fun pm ->
              Hashtbl.replace unit_paths u
                (match Hashtbl.find_opt unit_paths u with
                | Some existing -> Path_model.union existing pm
                | None -> pm))
            (Hashtbl.find_opt paths_tbl n.Call_tree.id))
    long_nodes;
  (* keys that never produced data (full speed by default, typically
     rarely executed) neither scale nor define the per-domain maxima of
     the swing clamp *)
  let settings keys ~hists ~paths =
    let entries =
      List.map
        (fun key ->
          let pm =
            Option.value (Hashtbl.find_opt paths key) ~default:Path_model.empty
          in
          match Hashtbl.find_opt hists key with
          | None -> (Reconfig.full_speed (), avg_duration_ps pm, false)
          | Some h -> (decide ~slowdown_pct h pm, avg_duration_ps pm, true))
        keys
    in
    let tbl = Hashtbl.create 32 in
    List.iter2 (Hashtbl.replace tbl) keys (clamp_swings entries);
    tbl
  in
  {
    tree;
    context;
    slowdown_pct;
    node_settings =
      settings
        (List.map (fun (n : Call_tree.node) -> n.Call_tree.id) long_nodes)
        ~hists:hist_tbl ~paths:paths_tbl;
    unit_settings =
      settings (Call_tree.long_static_units tree) ~hists:unit_hists
        ~paths:unit_paths;
    node_histograms = hist_tbl;
    node_paths = paths_tbl;
  }

let setting_for_node t id = Hashtbl.find_opt t.node_settings id
let setting_for_unit t u = Hashtbl.find_opt t.unit_settings u

let with_slowdown t ~slowdown_pct =
  make ~tree:t.tree ~context:t.context ~slowdown_pct
    ~node_histograms:
      (Hashtbl.fold (fun id h acc -> (id, h) :: acc) t.node_histograms [])
    ~node_paths:(Hashtbl.fold (fun id p acc -> (id, p) :: acc) t.node_paths [])
    ()

let static_reconfig_points t =
  List.length (Call_tree.long_static_units t.tree)

let static_instr_points t =
  if not t.context.Context.paths then static_reconfig_points t
  else begin
    let units = List.length (Call_tree.instrumented_static_units t.tree) in
    let sites =
      if not t.context.Context.sites then 0
      else begin
        let tbl = Hashtbl.create 16 in
        Call_tree.iter t.tree ~f:(fun n ->
            if n.Call_tree.reaches_long then
              match n.Call_tree.kind with
              | Call_tree.Func_node { site; _ } when site >= 0 ->
                  Hashtbl.replace tbl site ()
              | Call_tree.Func_node _ | Call_tree.Loop_node _
              | Call_tree.Root ->
                  ());
        Hashtbl.length tbl
      end
    in
    units + sites
  end

let pp fmt t =
  Format.fprintf fmt "@[<v>plan (%s, delta=%.1f%%):@,"
    t.context.Context.name t.slowdown_pct;
  List.iter
    (fun (n : Call_tree.node) ->
      match setting_for_node t n.Call_tree.id with
      | Some s ->
          Format.fprintf fmt "  node %d: %a@," n.Call_tree.id Reconfig.pp s
      | None -> ())
    (Call_tree.long_nodes t.tree);
  Format.fprintf fmt "@]"
