(* Tests for the persistent content-addressed result cache: canonical
   codec round-trips (qcheck), pinned key/digest stability, store
   behaviour under corruption and concurrent writers, and the Runner
   integration (warm results byte-identical to cold). *)

module Key = Mcd_cache.Key
module Store = Mcd_cache.Store
module Metrics = Mcd_power.Metrics
module Oracle = Mcd_core.Oracle
module Path_model = Mcd_core.Path_model
module Plan_io = Mcd_core.Plan_io
module Histogram = Mcd_util.Histogram
module Runner = Mcd_experiments.Runner
module Suite = Mcd_workloads.Suite
module Context = Mcd_profiling.Context

let qcheck ?(seed = 0xcac4e) t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

(* --- temp stores ----------------------------------------------------- *)

let rec object_files path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.to_list (Sys.readdir path)
      |> List.concat_map (fun e -> object_files (Filename.concat path e))
  | _ -> [ path ]
  | exception Unix.Unix_error _ -> []

(* --- codec round-trips ------------------------------------------------ *)

let run_gen =
  QCheck.Gen.(
    let pos_float = float_range 0.0 1e12 in
    let* runtime_ps = int_range 0 max_int in
    let* energy_pj = pos_float in
    (* at least one domain: the codec renders the array as a comma list,
       which has no representation for zero entries (real runs always
       carry five) *)
    let* per_domain_pj = array_size (int_range 1 6) pos_float in
    let* instructions = nat in
    let* cycles_front = nat in
    let* sync_crossings = nat in
    let* sync_penalties = nat in
    let* reconfigurations = nat in
    let* instr_points = nat in
    let+ instr_overhead_ps = nat in
    {
      Metrics.runtime_ps;
      energy_pj;
      per_domain_pj;
      instructions;
      cycles_front;
      sync_crossings;
      sync_penalties;
      reconfigurations;
      instr_points;
      instr_overhead_ps;
    })

let prop_metrics_roundtrip =
  QCheck.Test.make ~name:"Metrics.run codec round-trips bit-exactly"
    ~count:200
    (QCheck.make ~print:Metrics.encode run_gen)
    (fun run ->
      match Metrics.decode (Metrics.encode run) with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok run' ->
          (* Structural equality is bit-level for ints and the float
             payloads (%h is lossless); encode equality seals the
             byte-stability contract the cache depends on. *)
          run = run' && String.equal (Metrics.encode run) (Metrics.encode run'))

let analysis_gen =
  QCheck.Gen.(
    let pos_float = float_range 0.0 1e9 in
    let histogram_gen =
      let* bins = int_range 1 8 in
      let+ weights = list_size (return bins) (float_range 0.0 100.0) in
      let h = Histogram.create ~bins in
      List.iteri (fun bin weight -> Histogram.add h ~bin ~weight) weights;
      h
    in
    let segment_gen =
      let* base_ps = pos_float in
      let+ signatures =
        list_size (int_range 0 3) (array_size (int_range 1 4) pos_float)
      in
      { Path_model.base_ps; signatures }
    in
    let interval_gen =
      let* duration_ps = pos_float in
      let* histograms = option (array_size (int_range 1 3) histogram_gen) in
      let+ segments = list_size (int_range 0 3) segment_gen in
      { Oracle.duration_ps; histograms; paths = { Path_model.segments } }
    in
    let* interval_insts = int_range 1 1_000_000 in
    let+ intervals = array_size (int_range 0 4) interval_gen in
    { Oracle.interval_insts; intervals })

let prop_oracle_roundtrip =
  QCheck.Test.make ~name:"Oracle.analysis codec round-trips bit-exactly"
    ~count:50
    (QCheck.make ~print:Oracle.encode_analysis analysis_gen)
    (fun a ->
      let bytes = Oracle.encode_analysis a in
      match Oracle.decode_analysis bytes with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok a' -> String.equal bytes (Oracle.encode_analysis a'))

(* --- key model -------------------------------------------------------- *)

(* Pinned golden key: if this test ever fails, the canonical rendering
   or digest changed and every existing cache object is silently
   unreachable — bump Key.format_version instead of repinning. The
   model segment is pinned at 2 (the attack/decay idle-streak fix): a
   pre-fix object must miss cleanly rather than serve stale numbers. *)
let test_golden_key () =
  let key =
    Key.make ~kind:"run" ~parts:[ ("policy", "baseline"); ("note", "x y") ]
  in
  Alcotest.(check string)
    "canonical" "mcd-dvfs-cache/1 model/2 kind=run policy=baseline note=x%20y"
    (Key.canonical key);
  Alcotest.(check string)
    "digest" "765ea1de1b452a5f2b587189e86322f3" (Key.digest key);
  let tricky = Key.make ~kind:"run" ~parts:[ ("v", "a%b\nc d") ] in
  Alcotest.(check string)
    "percent-encoding" "mcd-dvfs-cache/1 model/2 kind=run v=a%25b%0ac%20d"
    (Key.canonical tricky)

(* --- store ------------------------------------------------------------ *)

let test_store_roundtrip () =
  Helpers.with_temp_store @@ fun store ->
  let key = Key.make ~kind:"test" ~parts:[ ("n", "1") ] in
  Alcotest.(check bool) "empty store misses" true (Store.find store key = None);
  Store.add store key "payload bytes\n";
  Alcotest.(check (option string))
    "payload round-trips" (Some "payload bytes\n") (Store.find store key);
  let s = Store.stats store in
  Alcotest.(check int) "one store" 1 s.Store.stores;
  Alcotest.(check int) "one hit" 1 s.Store.hits;
  Alcotest.(check int) "one miss" 1 s.Store.misses

let test_store_corrupt_recomputes_and_heals () =
  Helpers.with_temp_store @@ fun store ->
  let key = Key.make ~kind:"test" ~parts:[ ("n", "2") ] in
  let calls = ref 0 in
  let compute () =
    incr calls;
    "deterministic result"
  in
  let cached () =
    Store.cached store ~key ~encode:Fun.id
      ~decode:(fun s -> Ok s)
      compute
  in
  Alcotest.(check string) "cold" "deterministic result" (cached ());
  Alcotest.(check string) "warm" "deterministic result" (cached ());
  Alcotest.(check int) "computed once" 1 !calls;
  (* truncate the object: the next read must detect, recompute, heal *)
  (match object_files (Filename.concat (Store.dir store) "objects") with
  | [ path ] ->
      let len = (Unix.stat path).Unix.st_size in
      Unix.truncate path (len / 2)
  | files -> Alcotest.failf "expected one object, found %d" (List.length files));
  Alcotest.(check string) "corrupt falls back" "deterministic result" (cached ());
  Alcotest.(check int) "recomputed" 2 !calls;
  let s = Store.stats store in
  Alcotest.(check int) "corruption counted" 1 s.Store.corrupt;
  Alcotest.(check string) "healed" "deterministic result" (cached ());
  Alcotest.(check int) "no third compute" 2 !calls

let test_store_detects_wrong_key () =
  (* An object whose embedded canonical key disagrees with the lookup
     key (digest collision, or a corrupted shard layout) must read as
     corrupt, not as a wrong answer. *)
  Helpers.with_temp_store @@ fun store ->
  let a = Key.make ~kind:"test" ~parts:[ ("n", "a") ] in
  let b = Key.make ~kind:"test" ~parts:[ ("n", "b") ] in
  Store.add store a "a's payload";
  let path_of key =
    let d = Key.digest key in
    Filename.concat
      (Filename.concat (Filename.concat (Store.dir store) "objects")
         (String.sub d 0 2))
      (String.sub d 2 (String.length d - 2))
  in
  let content = In_channel.with_open_bin (path_of a) In_channel.input_all in
  let dir = Filename.dirname (path_of b) in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Out_channel.with_open_bin (path_of b)
    (fun oc -> Out_channel.output_string oc content);
  Alcotest.(check (option string)) "mismatched key reads as absent" None
    (Store.find store b);
  Alcotest.(check bool) "counted as corrupt" true
    ((Store.stats store).Store.corrupt >= 1);
  Alcotest.(check (option string)) "honest object still reads" (Some "a's payload")
    (Store.find store a)

let test_store_concurrent_writers () =
  Helpers.with_temp_store @@ fun store ->
  let key = Key.make ~kind:"test" ~parts:[ ("n", "parallel") ] in
  let payload = String.concat "," (List.init 100 string_of_int) in
  let worker () =
    Store.cached store ~key ~encode:Fun.id
      ~decode:(fun s -> Ok s)
      (fun () -> payload)
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  let results = List.map Domain.join domains in
  List.iter
    (fun r -> Alcotest.(check string) "same payload from every domain" payload r)
    results;
  Alcotest.(check (option string)) "object intact afterwards" (Some payload)
    (Store.find store key)

let test_store_gc () =
  Helpers.with_temp_store @@ fun store ->
  List.iter
    (fun i ->
      Store.add store
        (Key.make ~kind:"test" ~parts:[ ("n", string_of_int i) ])
        (String.make 100 'x'))
    [ 1; 2; 3 ];
  let objects, bytes = Store.disk_usage store in
  Alcotest.(check int) "three objects" 3 objects;
  Alcotest.(check bool) "non-empty" true (bytes > 0);
  let removed, freed = Store.gc store in
  Alcotest.(check int) "gc removes all" 3 removed;
  Alcotest.(check int) "gc frees all bytes" bytes freed;
  Alcotest.(check (pair int int)) "store empty" (0, 0) (Store.disk_usage store);
  (* the sweep lands in the session counters (and therefore in exports) *)
  let s = Store.stats store in
  Alcotest.(check int) "gc_removed counted" removed s.Store.gc_removed;
  Alcotest.(check int) "gc_freed_bytes counted" freed s.Store.gc_freed_bytes;
  let m = Store.metrics store in
  Alcotest.(check int) "cache.gc_removed instrument" removed
    (Mcd_obs.Metrics.value (Mcd_obs.Metrics.counter m "cache.gc_removed"))

(* --- Runner integration ----------------------------------------------- *)

let test_runner_warm_results_byte_identical () =
  Helpers.with_temp_store @@ fun store ->
  Fun.protect
    ~finally:(fun () -> Store.set_default None)
    (fun () ->
      Store.set_default (Some store);
      let w = Suite.by_name "adpcm decode" in
      Runner.clear_caches ();
      let cold_run = Runner.baseline w in
      let cold_plan = Runner.plan_for w ~context:Context.lf ~train:`Train in
      let s0 = Store.stats store in
      Alcotest.(check bool) "cold pass stores objects" true
        (s0.Store.stores >= 2);
      Runner.clear_caches ();
      let warm_run = Runner.baseline w in
      let warm_plan = Runner.plan_for w ~context:Context.lf ~train:`Train in
      let s1 = Store.stats store in
      Alcotest.(check bool) "warm pass hits the disk" true
        (s1.Store.hits - s0.Store.hits >= 2);
      Alcotest.(check string) "runs byte-identical"
        (Metrics.encode cold_run) (Metrics.encode warm_run);
      Alcotest.(check string) "plans byte-identical"
        (Plan_io.to_string cold_plan)
        (Plan_io.to_string warm_plan))

let suite =
  [
    qcheck prop_metrics_roundtrip;
    qcheck prop_oracle_roundtrip;
    ("golden key and digest pinned", `Quick, test_golden_key);
    ("store round-trip", `Quick, test_store_roundtrip);
    ( "corrupt object recomputes and heals",
      `Quick,
      test_store_corrupt_recomputes_and_heals );
    ("wrong embedded key reads as corrupt", `Quick, test_store_detects_wrong_key);
    ("concurrent writers agree", `Quick, test_store_concurrent_writers);
    ("gc clears the store", `Quick, test_store_gc);
    ( "runner warm results byte-identical",
      `Slow,
      test_runner_warm_results_byte_identical );
  ]
