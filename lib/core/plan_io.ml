module Call_tree = Mcd_profiling.Call_tree
module Context = Mcd_profiling.Context
module Histogram = Mcd_util.Histogram
module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq
module Reconfig = Mcd_domains.Reconfig
module Error = Mcd_robust.Error
module Validate = Mcd_robust.Validate

(* FNV-1a over a canonical rendering of the tree structure. *)
let fingerprint tree =
  let h = ref 0xCBF29CE484222325L in
  let mix s =
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001B3L)
      s
  in
  Call_tree.iter tree ~f:(fun n ->
      let kind =
        match n.Call_tree.kind with
        | Call_tree.Root -> "R"
        | Call_tree.Func_node { fid; site } -> Printf.sprintf "F%d@%d" fid site
        | Call_tree.Loop_node { loop_id } -> Printf.sprintf "L%d" loop_id
      in
      mix
        (Printf.sprintf "%d:%s:%d:%b;" n.Call_tree.id kind n.Call_tree.parent
           n.Call_tree.long));
  Printf.sprintf "%016Lx" !h

let setting_to_string (s : Reconfig.setting) =
  String.concat "," (Array.to_list (Array.map string_of_int s))

let floats_to_string arr =
  String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") arr))

let unit_to_string = function
  | Call_tree.Func_unit fid -> Printf.sprintf "func:%d" fid
  | Call_tree.Loop_unit id -> Printf.sprintf "loop:%d" id

let to_string (plan : Plan.t) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "mcd-dvfs-plan 1\n";
  add "context %s\n" plan.Plan.context.Context.name;
  add "slowdown %h\n" plan.Plan.slowdown_pct;
  add "tree %s\n" (fingerprint plan.Plan.tree);
  (* Hashtbl.iter order is deterministic for identically-built tables
     but arbitrary; sort by key so structurally equal plans render
     identically — the cache's byte-level comparisons depend on it. *)
  let sorted_by key_of tbl =
    List.sort
      (fun a b -> compare (key_of a) (key_of b))
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  List.iter
    (fun (id, s) -> add "node %d %s\n" id (setting_to_string s))
    (sorted_by fst plan.Plan.node_settings);
  List.iter
    (fun (u, s) -> add "unit %s %s\n" (unit_to_string u) (setting_to_string s))
    (sorted_by (fun (u, _) -> unit_to_string u) plan.Plan.unit_settings);
  List.iter
    (fun (id, hists) ->
      Array.iteri
        (fun d h ->
          let weights =
            Array.init (Histogram.bins h) (fun bin -> Histogram.get h ~bin)
          in
          add "hist %d %d %s\n" id d (floats_to_string weights))
        hists)
    (sorted_by fst plan.Plan.node_histograms);
  List.iter
    (fun (id, (pm : Path_model.t)) ->
      (* Segment list order is construction-dependent (add_segment
         prepends, so a parsed plan holds them reversed); render each
         node's segments sorted by their line text so semantically
         equal plans are byte-equal. *)
      let lines =
        List.map
          (fun (seg : Path_model.segment) ->
            let b = Buffer.create 128 in
            Buffer.add_string b (Printf.sprintf "seg %d %h" id seg.Path_model.base_ps);
            List.iter
              (fun signature ->
                Buffer.add_char b ' ';
                Buffer.add_string b (floats_to_string signature))
              seg.Path_model.signatures;
            Buffer.contents b)
          pm.Path_model.segments
      in
      List.iter (fun l -> add "%s\n" l) (List.sort compare lines))
    (sorted_by fst plan.Plan.node_paths);
  (* trailer so a truncated copy is detectable *)
  add "end\n";
  Buffer.contents buf

let save (plan : Plan.t) ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string plan))

(* --- loading ----------------------------------------------------------- *)

(* Per-line parsing failures are reported through this local exception
   and turned into typed diagnostics by the caller; it never escapes
   [load_result]. *)
exception Reject of string

let parse_int s =
  match int_of_string s with
  | v -> v
  | exception Failure _ -> raise (Reject (Printf.sprintf "bad integer %S" s))

let parse_float s =
  match float_of_string s with
  | v -> v
  | exception Failure _ -> raise (Reject (Printf.sprintf "bad float %S" s))

let setting_of_string str =
  let parts = String.split_on_char ',' str in
  if List.length parts <> Domain.count then
    raise
      (Reject
         (Printf.sprintf "setting has %d fields, expected %d"
            (List.length parts) Domain.count));
  Array.of_list (List.map parse_int parts)

let floats_of_string str =
  Array.of_list (List.map parse_float (String.split_on_char ',' str))

let unit_of_string s =
  match String.split_on_char ':' s with
  | [ "func"; n ] -> Call_tree.Func_unit (parse_int n)
  | [ "loop"; n ] -> Call_tree.Loop_unit (parse_int n)
  | _ -> raise (Reject (Printf.sprintf "bad static unit %S" s))

type loaded = { plan : Plan.t; warnings : Error.t list }

let of_string_result ?(path = "<string>") ~tree content =
  if content = "" then Result.Error [ Error.Empty_file { path } ]
  else begin
    let all_lines = String.split_on_char '\n' content in
    (* drop the empty fragment after a final newline, mirroring what
       line-by-line file reading used to see *)
    let all_lines =
      match List.rev all_lines with
      | "" :: rest -> List.rev rest
      | _ -> all_lines
    in
    match all_lines with
    | [] -> Result.Error [ Error.Empty_file { path } ]
    | header :: body ->
        (fun () ->
          let fatals = ref [] in
          let warnings = ref [] in
          let fatal e = fatals := e :: !fatals in
          let warn e = warnings := e :: !warnings in
          let context = ref Context.lf in
          let slowdown = ref 7.0 in
          let saw_context = ref false in
          let saw_slowdown = ref false in
          let node_settings = Hashtbl.create 32 in
          let unit_settings = Hashtbl.create 32 in
          let node_histograms : (int, Histogram.t array) Hashtbl.t =
            Hashtbl.create 32
          in
          let node_paths : (int, Path_model.t) Hashtbl.t = Hashtbl.create 32 in
          let fp_checked = ref false in
          let saw_end = ref false in
          let tree_size = Call_tree.size tree in
          let node_known id ~what =
            if id >= 0 && id < tree_size then true
            else begin
              warn
                (Error.Tree_shape_drift
                   { path; node = id; detail = what ^ " for an unknown node" });
              false
            end
          in
          (* A validated setting: wrong arity and out-of-range values are
             fatal (a corrupt field, not a near-miss); in-range off-grid
             values are snapped with a diagnostic. *)
          let checked_setting ~where str k =
            let s = setting_of_string str in
            match Validate.setting ~where s with
            | Result.Error e -> fatal e
            | Result.Ok (repaired, ws) ->
                List.iter warn ws;
                k repaired
          in
          (match header with
          | "mcd-dvfs-plan 1" -> ()
          | found -> fatal (Error.Bad_header { path; found }));
          let line_no = ref 1 in
          (if !fatals = [] then
             List.iter
               (fun line ->
                 incr line_no;
                 let where = Printf.sprintf "%s:%d" path !line_no in
                 try
                   if !saw_end then
                     raise (Reject "content after the end-of-plan marker");
                   match String.split_on_char ' ' line with
                   | [ "end" ] -> saw_end := true
                   | [ "context"; name ] -> (
                       match Context.of_name name with
                       | c ->
                           saw_context := true;
                           context := c
                       | exception Not_found ->
                           raise (Reject (Printf.sprintf "unknown context %S" name)))
                   | [ "slowdown"; v ] ->
                       let v, w = Validate.slowdown_pct (parse_float v) in
                       Option.iter warn w;
                       saw_slowdown := true;
                       slowdown := v
                   | [ "tree"; fp ] ->
                       fp_checked := true;
                       let expected = fingerprint tree in
                       if fp <> expected then
                         fatal
                           (Error.Fingerprint_mismatch
                              { path; expected; found = fp })
                   | [ "node"; id; s ] ->
                       let id = parse_int id in
                       if node_known id ~what:"setting" then
                         checked_setting ~where s (fun repaired ->
                             Hashtbl.replace node_settings id repaired)
                   | [ "unit"; u; s ] ->
                       let u = unit_of_string u in
                       checked_setting ~where s (fun repaired ->
                           Hashtbl.replace unit_settings u repaired)
                   | [ "hist"; id; d; weights ] ->
                       let id = parse_int id and d = parse_int d in
                       if d < 0 || d >= Domain.count then
                         raise
                           (Reject (Printf.sprintf "bad domain index %d" d));
                       let weights = floats_of_string weights in
                       if Array.length weights <> Freq.num_steps then
                         raise
                           (Reject
                              (Printf.sprintf "%d histogram bins, expected %d"
                                 (Array.length weights) Freq.num_steps));
                       if node_known id ~what:"histogram" then begin
                         let hists =
                           match Hashtbl.find_opt node_histograms id with
                           | Some hs -> hs
                           | None ->
                               let hs = Plan.empty_histograms () in
                               Hashtbl.add node_histograms id hs;
                               hs
                         in
                         Array.iteri
                           (fun bin weight ->
                             let weight, w =
                               Validate.weight ~node:id ~domain:d ~bin weight
                             in
                             Option.iter warn w;
                             if weight > 0.0 then
                               Histogram.add hists.(d) ~bin ~weight)
                           weights
                       end
                   | "seg" :: id :: base :: signatures ->
                       let id = parse_int id in
                       if node_known id ~what:"path segment" then begin
                         let base = parse_float base in
                         if Float.is_nan base || base < 0.0 then
                           raise (Reject "negative or NaN segment base");
                         let seg =
                           {
                             Path_model.base_ps = base;
                             signatures = List.map floats_of_string signatures;
                           }
                         in
                         let pm =
                           match Hashtbl.find_opt node_paths id with
                           | Some pm -> pm
                           | None -> Path_model.empty
                         in
                         Hashtbl.replace node_paths id
                           (Path_model.add_segment pm seg)
                       end
                   | [] | [ "" ] -> ()
                   | directive :: _ ->
                       raise
                         (Reject (Printf.sprintf "unknown directive %S" directive))
                 with Reject reason ->
                   fatal
                     (Error.Malformed_line
                        { path; line = !line_no; content = line; reason }))
               body);
          if !fatals = [] && not !fp_checked then
            fatal (Error.Missing_fingerprint { path });
          if !fatals = [] && not !saw_end then
            fatal (Error.Truncated_file { path });
          (* Absent header lines are survivable (the defaults below are
             sane) but never silent: a plan written by [save] always has
             both, so a missing one means hand-editing or damage. *)
          if not !saw_context then
            warn
              (Error.Missing_header_field
                 {
                   path;
                   field = "context";
                   default = Context.lf.Context.name;
                 });
          if not !saw_slowdown then
            warn
              (Error.Missing_header_field
                 { path; field = "slowdown"; default = "7.0%" });
          match List.rev !fatals with
          | _ :: _ as errors -> Result.Error errors
          | [] ->
              Result.Ok
                {
                  plan =
                    {
                      Plan.tree;
                      context = !context;
                      slowdown_pct = !slowdown;
                      node_settings;
                      unit_settings;
                      node_histograms;
                      node_paths;
                    };
                  warnings = List.rev !warnings;
                })
          ()
  end

let load_result ~path ~tree =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error message ->
      Result.Error [ Error.Io_error { path; message } ]
  | content -> of_string_result ~path ~tree content

(* --- whole-plan validation --------------------------------------------- *)

let validate (plan : Plan.t) =
  let errors = ref [] in
  let emit e = errors := e :: !errors in
  let tree_size = Call_tree.size plan.Plan.tree in
  let check_setting ~where s =
    match Validate.setting ~where s with
    | Result.Error e -> emit e
    | Result.Ok (_, ws) -> List.iter emit ws
  in
  Hashtbl.iter
    (fun id s ->
      if id < 0 || id >= tree_size then
        emit
          (Error.Tree_shape_drift
             { path = "<plan>"; node = id; detail = "setting for an unknown node" });
      check_setting ~where:(Printf.sprintf "node %d" id) s)
    plan.Plan.node_settings;
  Hashtbl.iter
    (fun u s -> check_setting ~where:(unit_to_string u) s)
    plan.Plan.unit_settings;
  Hashtbl.iter
    (fun id hists ->
      if Array.length hists <> Domain.count then
        emit
          (Error.Bad_setting_arity
             {
               where = Printf.sprintf "node %d histograms" id;
               expected = Domain.count;
               found = Array.length hists;
             })
      else
        Array.iteri
          (fun d h ->
            if Histogram.bins h <> Freq.num_steps then
              emit
                (Error.Bad_histogram_shape
                   {
                     node = id;
                     expected_bins = Freq.num_steps;
                     found_bins = Histogram.bins h;
                   })
            else
              for bin = 0 to Freq.num_steps - 1 do
                let w = Histogram.get h ~bin in
                match Validate.weight ~node:id ~domain:d ~bin w with
                | _, Some e -> emit e
                | _, None -> ()
              done)
          hists)
    plan.Plan.node_histograms;
  (match Validate.slowdown_pct plan.Plan.slowdown_pct with
  | _, Some e -> emit e
  | _, None -> ());
  List.rev !errors
