module Controller = Mcd_cpu.Controller
module Call_tree = Mcd_profiling.Call_tree
module Context = Mcd_profiling.Context
module Tracker = Mcd_profiling.Tracker
module Reconfig = Mcd_domains.Reconfig
module Walker = Mcd_isa.Walker

type counters = { mutable reconfig_execs : int; mutable instr_execs : int }
type edited = { controller : Controller.t; counters : counters }

let instr_stall_cycles = 9
let reconfig_stall_cycles = 17
let offset_stall_cycles = 2
let static_reconfig_stall_cycles = 1

let no_reaction = Controller.no_reaction

type frame = {
  was_long : bool;
  saved : Reconfig.setting;
  instrumented : bool;
  is_loop : bool;
}

let unit_of_marker = function
  | Walker.Enter_func { fid; _ } | Walker.Exit_func { fid } ->
      Some (Call_tree.Func_unit fid)
  | Walker.Enter_loop { loop_id } | Walker.Exit_loop { loop_id } ->
      Some (Call_tree.Loop_unit loop_id)

let is_loop_marker = function
  | Walker.Enter_loop _ | Walker.Exit_loop _ -> true
  | Walker.Enter_func _ | Walker.Exit_func _ -> false

(* Run-time behaviour for the path-tracking contexts: prologues and
   epilogues of instrumented units maintain the tree label; entering a
   long-running node writes its setting, exiting restores the saved
   one. *)
let edit_paths (plan : Plan.t) =
  let tree = plan.Plan.tree in
  let tracker = Tracker.create tree in
  let instrumented = Hashtbl.create 32 in
  List.iter
    (fun u -> Hashtbl.replace instrumented u ())
    (Call_tree.instrumented_static_units tree);
  let cur = ref (Reconfig.full_speed ()) in
  let frames = ref [] in
  let on_marker m ~now:_ =
    match Tracker.on_marker tracker m with
    | Tracker.Ignored -> no_reaction
    | Tracker.Entered pos ->
        let unit_instrumented =
          match unit_of_marker m with
          | Some u -> Hashtbl.mem instrumented u
          | None -> false
        in
        let is_loop = is_loop_marker m in
        let long_node =
          match pos with
          | Tracker.Unknown -> None
          | Tracker.Known id ->
              if (Call_tree.node tree id).Call_tree.long then Some id
              else None
        in
        let frame =
          {
            was_long = Option.is_some long_node;
            saved = !cur;
            instrumented = unit_instrumented;
            is_loop;
          }
        in
        frames := frame :: !frames;
        (match long_node with
        | Some id ->
            let s =
              match Plan.setting_for_node plan id with
              | Some s -> s
              | None -> Reconfig.full_speed ()
            in
            cur := s;
            {
              Controller.stall_cycles = reconfig_stall_cycles;
              table_reads = 1;
              set = Some s;
            }
        | None ->
            if unit_instrumented then begin
              if is_loop then
                {
                  Controller.stall_cycles = offset_stall_cycles;
                  table_reads = 0;
                  set = None;
                }
              else
                {
                  Controller.stall_cycles = instr_stall_cycles;
                  table_reads = 1;
                  set = None;
                }
            end
            else no_reaction)
    | Tracker.Exited _ -> (
        match !frames with
        | [] -> no_reaction (* malformed stream *)
        | f :: rest ->
            frames := rest;
            if f.was_long then begin
              cur := f.saved;
              {
                Controller.stall_cycles = reconfig_stall_cycles;
                table_reads = 1;
                set = Some f.saved;
              }
            end
            else if f.instrumented then begin
              if f.is_loop then
                {
                  Controller.stall_cycles = offset_stall_cycles;
                  table_reads = 0;
                  set = None;
                }
              else
                {
                  Controller.stall_cycles = instr_stall_cycles;
                  table_reads = 1;
                  set = None;
                }
            end
            else no_reaction)
  in
  {
    Controller.name = "profile:" ^ plan.Plan.context.Context.name;
    on_marker;
    on_sample = (fun _ ~now:_ -> None);
    sample_interval_cycles = 0;
  }

(* Run-time behaviour for L+F and F: no label tracking at all. Statically
   known settings are written at the boundaries of long-running units;
   prologues save the current setting and epilogues restore it. *)
let edit_static (plan : Plan.t) =
  let ctx = plan.Plan.context in
  let cur = ref (Reconfig.full_speed ()) in
  let frames = ref [] in
  let enter u =
    match Plan.setting_for_unit plan u with
    | Some s ->
        frames := Some !cur :: !frames;
        cur := s;
        {
          Controller.stall_cycles = static_reconfig_stall_cycles;
          table_reads = 0;
          set = Some s;
        }
    | None ->
        frames := None :: !frames;
        no_reaction
  in
  let exit_ () =
    match !frames with
    | [] -> no_reaction
    | f :: rest -> (
        frames := rest;
        match f with
        | Some saved ->
            cur := saved;
            {
              Controller.stall_cycles = static_reconfig_stall_cycles;
              table_reads = 0;
              set = Some saved;
            }
        | None -> no_reaction)
  in
  let on_marker m ~now:_ =
    match m with
    | Walker.Enter_func { fid; _ } -> enter (Call_tree.Func_unit fid)
    | Walker.Exit_func _ -> exit_ ()
    | Walker.Enter_loop { loop_id } ->
        if ctx.Context.loops then enter (Call_tree.Loop_unit loop_id)
        else no_reaction
    | Walker.Exit_loop _ ->
        if ctx.Context.loops then exit_ () else no_reaction
  in
  {
    Controller.name = "profile:" ^ ctx.Context.name;
    on_marker;
    on_sample = (fun _ ~now:_ -> None);
    sample_interval_cycles = 0;
  }

(* Points are counted where the pipeline charges them, so a plan's
   controller and any other controller are counted by one rule. *)
let count (c : Controller.t) =
  let counters = { reconfig_execs = 0; instr_execs = 0 } in
  let on_marker m ~now =
    let r = c.Controller.on_marker m ~now in
    if Controller.charged r then
      if Option.is_some r.Controller.set then
        counters.reconfig_execs <- counters.reconfig_execs + 1
      else counters.instr_execs <- counters.instr_execs + 1;
    r
  in
  { controller = { c with Controller.on_marker }; counters }

let edit plan =
  count
    (if plan.Plan.context.Context.paths then edit_paths plan
     else edit_static plan)
