(* Tests for the 19-benchmark synthetic suite. *)

module Suite = Mcd_workloads.Suite
module Workload = Mcd_workloads.Workload
module Walker = Mcd_isa.Walker
module P = Mcd_isa.Program
module Context = Mcd_profiling.Context
module Call_tree = Mcd_profiling.Call_tree
module Coverage = Mcd_profiling.Coverage

let test_suite_size () =
  Alcotest.(check int) "nineteen benchmarks" 19 (List.length Suite.all);
  Alcotest.(check int) "twelve media" 12 (List.length Suite.media);
  Alcotest.(check int) "three specint" 3 (List.length Suite.spec_int);
  Alcotest.(check int) "four specfp" 4 (List.length Suite.spec_fp)

let test_names_unique () =
  Alcotest.(check int) "unique names" 19
    (List.length (List.sort_uniq compare Suite.names))

let test_by_name () =
  let w = Suite.by_name "mcf" in
  Alcotest.(check string) "found" "mcf" w.Workload.name;
  (match Suite.by_name "doom" with
  | _ -> Alcotest.fail "by_name accepted an unknown benchmark"
  | exception Invalid_argument msg ->
      (* the message must name the offender and list the valid names *)
      Alcotest.(check bool) "mentions the bad name" true
        (Helpers.contains ~needle:{|"doom"|} msg);
      Alcotest.(check bool) "lists valid names" true
        (Helpers.contains ~needle:"mcf" msg));
  (match Suite.find_opt "doom" with
  | None -> ()
  | Some _ -> Alcotest.fail "find_opt accepted an unknown benchmark");
  (match Suite.find_opt "gzip" with
  | Some w -> Alcotest.(check string) "find_opt found" "gzip" w.Workload.name
  | None -> Alcotest.fail "find_opt missed a known benchmark")

let test_programs_validate () =
  (* Program.validate runs in the builder; re-run it explicitly *)
  List.iter (fun w -> P.validate w.Workload.program) Suite.all

let test_inputs_distinct () =
  List.iter
    (fun w ->
      Alcotest.(check bool) "train/ref seeds differ" true
        (w.Workload.train.P.seed <> w.Workload.reference.P.seed);
      Alcotest.(check bool) "train window below ref" true
        (w.Workload.train_window < w.Workload.ref_window))
    Suite.all

let count_insts w input limit =
  let walker = Walker.create w.Workload.program ~input in
  let rec go n =
    if n >= limit then n
    else
      match Walker.next walker with
      | None -> n
      | Some (Walker.Inst _) -> go (n + 1)
      | Some (Walker.Marker _) -> go n
  in
  go 0

let test_programs_long_enough () =
  (* every program must fill its warm-up plus reference window *)
  List.iter
    (fun w ->
      let need = w.Workload.ref_offset + w.Workload.ref_window in
      let n = count_insts w w.Workload.reference need in
      if n < need then
        Alcotest.failf "%s reference run too short: %d < %d" w.Workload.name n
          need)
    Suite.all

let test_train_programs_long_enough () =
  List.iter
    (fun w ->
      let n = count_insts w w.Workload.train w.Workload.train_window in
      if n < w.Workload.train_window then
        Alcotest.failf "%s training run too short: %d < %d" w.Workload.name n
          w.Workload.train_window)
    Suite.all

let build_tree w input =
  Call_tree.build w.Workload.program ~input ~context:Context.lfcp
    ~max_insts:120_000 ()

let test_every_benchmark_has_long_nodes () =
  List.iter
    (fun w ->
      let t = build_tree w w.Workload.train in
      if Call_tree.long_count t = 0 then
        Alcotest.failf "%s has no long-running nodes in training"
          w.Workload.name)
    Suite.all

let test_vpr_low_coverage () =
  let w = Suite.by_name "vpr" in
  let c =
    Coverage.compare
      ~train:(build_tree w w.Workload.train)
      ~reference:(build_tree w w.Workload.reference)
  in
  Alcotest.(check bool) "vpr coverage below 0.5" true
    (c.Coverage.long_coverage < 0.5)

let test_mpeg2_decode_partial_coverage () =
  let w = Suite.by_name "mpeg2 decode" in
  let c =
    Coverage.compare
      ~train:(build_tree w w.Workload.train)
      ~reference:(build_tree w w.Workload.reference)
  in
  Alcotest.(check bool) "mpeg2 long coverage partial" true
    (c.Coverage.long_coverage < 1.0 && c.Coverage.long_coverage > 0.2)

let test_stable_benchmarks_full_coverage () =
  List.iter
    (fun name ->
      let w = Suite.by_name name in
      let c =
        Coverage.compare
          ~train:(build_tree w w.Workload.train)
          ~reference:(build_tree w w.Workload.reference)
      in
      if c.Coverage.long_coverage < 0.99 then
        Alcotest.failf "%s expected full coverage, got %.2f" name
          c.Coverage.long_coverage)
    [ "adpcm decode"; "g721 decode"; "gsm encode"; "equake" ]

let test_traits_documented () =
  List.iter
    (fun w ->
      Alcotest.(check bool) "trait non-empty" true
        (String.length w.Workload.trait > 10))
    Suite.all

let suite =
  [
    ("suite size", `Quick, test_suite_size);
    ("names unique", `Quick, test_names_unique);
    ("by_name", `Quick, test_by_name);
    ("programs validate", `Quick, test_programs_validate);
    ("inputs distinct", `Quick, test_inputs_distinct);
    ("reference runs long enough", `Slow, test_programs_long_enough);
    ("training runs long enough", `Slow, test_train_programs_long_enough);
    ("long nodes everywhere", `Slow, test_every_benchmark_has_long_nodes);
    ("vpr low coverage", `Slow, test_vpr_low_coverage);
    ("mpeg2 partial coverage", `Slow, test_mpeg2_decode_partial_coverage);
    ("stable full coverage", `Slow, test_stable_benchmarks_full_coverage);
    ("traits documented", `Quick, test_traits_documented);
  ]
