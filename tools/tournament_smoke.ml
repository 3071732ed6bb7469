(* Tournament smoke test for the @verify alias.

   Runs the real CLI — `mcd-dvfs tournament --quick --json FILE` — and
   asserts the contract the docs promise: the command exits 0, every
   contender (Runner.contenders: the Mcd_control.Policies registry, the
   off-line oracle and profile L+F) appears in the ranked table, the
   rank column counts 1..N in order, and the JSON report parses with one
   well-formed entry per contender across the quick workload subset.

   The CLI executable path arrives as argv(1) from the dune rule, so
   the test always runs the binary built from this tree. A dedicated
   warm cache directory, argv(2), keeps repeat verifies cheap without
   sharing state with the bench rule (which GCs its own directory); the
   rule names it because dune gives each action a TMPDIR of its own that
   it deletes after the build.

   Exits 0 on success, 1 with a message on the first violation. *)

module Policy = Mcd_control.Policy
module Json = Mcd_obs.Json
open Harness

let () =
  let cli, cache_dir =
    match Sys.argv with
    | [| _; cli; cache_dir |] -> (cli, cache_dir)
    | _ -> failwith "usage: tournament_smoke MCD_DVFS_CLI CACHE_DIR"
  in
  let out = Filename.temp_file "mcd-tournament" ".out" in
  let json_path = Filename.temp_file "mcd-tournament" ".json" in
  let cmd =
    Printf.sprintf "%s tournament --quick --jobs 0 --json %s --cache-dir %s > %s"
      (Filename.quote cli) (Filename.quote json_path)
      (Filename.quote cache_dir) (Filename.quote out)
  in
  let rc = Sys.command cmd in
  check (rc = 0) "exit code %d from %s" rc cmd;
  let table = read_file out in
  let contenders =
    Mcd_experiments.Runner.contenders
      (Mcd_workloads.Suite.by_name "adpcm decode")
  in
  check
    (List.length contenders >= 8)
    "%d contenders, want >= 8"
    (List.length contenders);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun p ->
      check
        (contains table p.Policy.label)
        "policy %S missing from the ranked table" p.Policy.label)
    contenders;
  (* the rank column must count 1..N in order: each table body row is
     "  <rank>  <label>  ..." after the header and separator lines *)
  let body_ranks =
    String.split_on_char '\n' table
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | first :: _ -> int_of_string_opt first
           | [] -> None)
  in
  check
    (body_ranks = List.init (List.length contenders) (fun i -> i + 1))
    "rank column is %s, want 1..%d"
    (String.concat "," (List.map string_of_int body_ranks))
    (List.length contenders);
  (match Json.of_string (read_file json_path) with
  | Error e -> check false "JSON report does not parse: %s" e
  | Ok j ->
      check
        (Option.bind (Json.member "schema" j) Json.to_string_opt
        = Some "mcd-dvfs-tournament/1")
        "bad or missing schema";
      let workloads =
        Option.bind (Json.member "workloads" j) Json.to_list_opt
        |> Option.value ~default:[]
      in
      check
        (List.length workloads = 5)
        "JSON lists %d workloads, want the 5 quick ones"
        (List.length workloads);
      let entries =
        Option.bind (Json.member "entries" j) Json.to_list_opt
        |> Option.value ~default:[]
      in
      check
        (List.length entries = List.length contenders)
        "JSON has %d entries, want %d" (List.length entries)
        (List.length contenders);
      List.iter
        (fun e ->
          let str k = Option.bind (Json.member k e) Json.to_string_opt in
          let num k = Option.bind (Json.member k e) Json.to_float_opt in
          check (str "policy" <> None) "entry without a policy label";
          check
            (Option.bind (Json.member "rank" e) Json.to_int_opt <> None)
            "entry without a rank";
          List.iter
            (fun axis ->
              check (num axis <> None) "entry %s without %s"
                (Option.value ~default:"?" (str "policy"))
                axis)
            [ "degradation_pct"; "savings_pct"; "ed_improvement_pct" ])
        entries);
  Sys.remove out;
  Sys.remove json_path;
  finish ()
