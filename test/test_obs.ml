(* Tests for the observability layer: ring buffer, metrics registry,
   time series, sink event plumbing, the JSON round-trip, and the
   exporters. An integration test runs a real profiled workload with a
   sink attached and reconstructs the reconfiguration sequence from the
   Chrome trace. *)

module Ring = Mcd_obs.Ring
module Metrics = Mcd_obs.Metrics
module Series = Mcd_obs.Series
module Sink = Mcd_obs.Sink
module Json = Mcd_obs.Json
module Export = Mcd_obs.Export
module Domain = Mcd_domains.Domain

(* --- Ring ----------------------------------------------------------- *)

let test_ring_basic () =
  let r = Ring.create ~capacity:4 ~dummy:(-1) in
  Alcotest.(check int) "empty" 0 (Ring.length r);
  Ring.push r 1;
  Ring.push r 2;
  Ring.push r 3;
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3 ] (Ring.to_list r);
  Alcotest.(check int) "nothing dropped" 0 (Ring.dropped r)

let test_ring_overwrites_oldest () =
  let r = Ring.create ~capacity:3 ~dummy:0 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "keeps the newest" [ 3; 4; 5 ] (Ring.to_list r);
  Alcotest.(check int) "length capped" 3 (Ring.length r);
  Alcotest.(check int) "two dropped" 2 (Ring.dropped r)

let test_ring_clear () =
  let r = Ring.create ~capacity:2 ~dummy:0 in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Ring.clear r;
  Alcotest.(check (list int)) "empty after clear" [] (Ring.to_list r);
  Alcotest.(check int) "drop counter survives" 1 (Ring.dropped r);
  Ring.push r 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (Ring.to_list r)

let test_ring_rejects_bad_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create ~capacity:0 ~dummy:0))

(* --- Metrics -------------------------------------------------------- *)

let test_metrics_counter () =
  let m = Metrics.create () in
  let c = Metrics.counter m "writes" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "accumulated" 5 (Metrics.value c);
  (* registration is idempotent: same instrument comes back *)
  Metrics.incr (Metrics.counter m "writes");
  Alcotest.(check int) "same instrument" 6 (Metrics.value c)

let test_metrics_gauge () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "mhz" in
  Metrics.set g 750.0;
  Metrics.set g 500.0;
  Alcotest.(check (float 0.0)) "last write wins" 500.0 (Metrics.peek g)

let test_metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "residency" ~bins:4 in
  Metrics.observe h ~bin:1 ~weight:2.5;
  Metrics.observe h ~bin:1 ~weight:0.5;
  Metrics.observe h ~bin:3 ~weight:1.0;
  Alcotest.(check (array (float 0.0))) "weights"
    [| 0.0; 3.0; 0.0; 1.0 |] (Metrics.weights h);
  Alcotest.(check bool) "out-of-range bin rejected" true
    (match Metrics.observe h ~bin:4 ~weight:1.0 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_metrics_kind_mismatch () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.(check bool) "re-registering as a gauge rejected" true
    (match Metrics.gauge m "x" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_metrics_iteration_order () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "a");
  ignore (Metrics.gauge m "b");
  ignore (Metrics.histogram m "c" ~bins:2);
  ignore (Metrics.counter m "a");
  let names = List.map Metrics.name (Metrics.to_list m) in
  Alcotest.(check (list string)) "registration order, no duplicates"
    [ "a"; "b"; "c" ] names

(* --- Series --------------------------------------------------------- *)

let test_series_append_get () =
  let s = Series.create ~initial_capacity:1 ~domains:2 () in
  for i = 0 to 9 do
    Series.append s ~t_ps:(i * 100) ~cycles:i ~ipc:(float_of_int i)
      ~mhz:[| 1000.0; 500.0 |] ~volt:[| 1.2; 0.9 |] ~occ:[| 3.0; 4.0 |]
      ~pj:[| 1.0; 2.0; 0.5 |]
  done;
  Alcotest.(check int) "grew past initial capacity" 10 (Series.length s);
  let r = Series.get s 7 in
  Alcotest.(check int) "t_ps" 700 r.Series.t_ps;
  Alcotest.(check (float 0.0)) "ipc" 7.0 r.Series.ipc;
  Alcotest.(check (array (float 0.0))) "mhz" [| 1000.0; 500.0 |] r.Series.mhz;
  Alcotest.(check (array (float 0.0))) "pj incl. external"
    [| 1.0; 2.0; 0.5 |] r.Series.pj

let test_series_arity_checked () =
  let s = Series.create ~domains:2 () in
  Alcotest.(check bool) "short mhz rejected" true
    (match
       Series.append s ~t_ps:0 ~cycles:0 ~ipc:0.0 ~mhz:[| 1.0 |]
         ~volt:[| 1.0; 1.0 |] ~occ:[| 0.0; 0.0 |] ~pj:[| 0.0; 0.0; 0.0 |]
     with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "pj must be domains+1" true
    (match
       Series.append s ~t_ps:0 ~cycles:0 ~ipc:0.0 ~mhz:[| 1.0; 1.0 |]
         ~volt:[| 1.0; 1.0 |] ~occ:[| 0.0; 0.0 |] ~pj:[| 0.0; 0.0 |]
     with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- Sink ----------------------------------------------------------- *)

let mk_sink ?control_capacity ?hot_capacity () =
  Sink.create ?control_capacity ?hot_capacity ~domains:Domain.count ()

let test_sink_event_merge_ordered () =
  let s = mk_sink () in
  (* interleave hot (sync) and control (reconfig/decision) events out of
     ring order; [events] must merge them by timestamp *)
  Sink.sync_penalty s ~t_ps:10 ~domain:1;
  Sink.reconfig_write s ~t_ps:20
    ~before:[| 1000; 1000; 1000; 1000 |]
    ~after:[| 1000; 500; 1000; 1000 |]
    ~noop:false;
  Sink.sync_penalty s ~t_ps:30 ~domain:2;
  Sink.decision s ~t_ps:25 ~source:"test" ~trigger:Sink.Sample
    ~detail:"d" ();
  let times = List.map Sink.event_time (Sink.events s) in
  Alcotest.(check (list int)) "time-ordered" [ 10; 20; 25; 30 ] times

let test_sink_counters_survive_eviction () =
  let s = mk_sink ~hot_capacity:2 () in
  for i = 1 to 100 do
    Sink.sync_penalty s ~t_ps:i ~domain:0
  done;
  let m = Sink.metrics s in
  Alcotest.(check int) "total survives as a counter" 100
    (Metrics.value (Metrics.counter m "obs.sync_penalties"));
  Alcotest.(check int) "ring keeps only the newest" 2
    (List.length (Sink.events s));
  Alcotest.(check int) "dropped accounted" 98 (Sink.dropped_events s)

let test_sink_copies_settings () =
  let s = mk_sink () in
  let setting = [| 1000; 500; 250; 750 |] in
  Sink.reconfig_write s ~t_ps:0
    ~before:[| 1000; 1000; 1000; 1000 |]
    ~after:setting ~noop:false;
  setting.(1) <- 9999;
  (match Sink.events s with
  | [ Sink.Reconfig_write { after; _ } ] ->
      Alcotest.(check int) "event holds a copy" 500 after.(1)
  | _ -> Alcotest.fail "expected exactly one event")

(* --- Json ----------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 2.25; Json.String "" ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":1} trailing"; "nul"; "\"unterminated" ]

let test_json_escapes () =
  match Json.of_string "\"a\\u0041\\n\\t\"" with
  | Ok (Json.String s) -> Alcotest.(check string) "escapes decoded" "aA\n\t" s
  | _ -> Alcotest.fail "expected a string"

(* --- Export --------------------------------------------------------- *)

let populated_sink () =
  let s = mk_sink () in
  Sink.reconfig_write s ~t_ps:1_000
    ~before:[| 1000; 1000; 1000; 1000 |]
    ~after:[| 1000; 500; 250; 1000 |]
    ~noop:false;
  Sink.sync_penalty s ~t_ps:1_500 ~domain:2;
  Sink.sample s ~t_ps:2_000 ~cycles:2 ~ipc:1.5
    ~mhz:[| 1000.0; 500.0; 250.0; 1000.0 |]
    ~volt:[| 1.2; 0.9; 0.65; 1.2 |]
    ~occ:[| 1.0; 2.0; 3.0; 4.0 |]
    ~pj:[| 10.0; 20.0; 30.0; 40.0; 5.0 |];
  s

let test_export_metrics_jsonl_parses () =
  let s = populated_sink () in
  let lines =
    Export.metrics_jsonl s |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "has lines" true (lines <> []);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok (Json.Obj fields) ->
          Alcotest.(check bool) "has name" true (List.mem_assoc "name" fields)
      | Ok _ -> Alcotest.fail "line is not an object"
      | Error e -> Alcotest.failf "line does not parse: %s" e)
    lines

let test_export_csv_shape () =
  let s = populated_sink () in
  let lines =
    Export.series_csv s |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [ header; row ] ->
      let cols l = List.length (String.split_on_char ',' l) in
      (* t_ps,cycles,ipc + 4 per-domain column families + pj_external *)
      Alcotest.(check int) "header columns" (3 + (4 * Domain.count) + 1)
        (cols header);
      Alcotest.(check int) "row matches header" (cols header) (cols row)
  | _ -> Alcotest.failf "expected header + 1 row, got %d lines"
           (List.length lines)

let test_export_chrome_trace_parses () =
  let s = populated_sink () in
  match Json.of_string (Export.chrome_trace s) with
  | Error e -> Alcotest.failf "trace does not parse: %s" e
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          Alcotest.(check bool) "has events" true (evs <> []);
          let names =
            List.filter_map
              (fun e ->
                match Json.member "name" e with
                | Some (Json.String n) -> Some n
                | _ -> None)
              evs
          in
          List.iter
            (fun expected ->
              Alcotest.(check bool) expected true (List.mem expected names))
            [ "reconfig"; "sync-penalty"; "thread_name" ]
      | _ -> Alcotest.fail "no traceEvents list")

(* Edge inputs: a sink that never saw an event or sample must still
   export three well-formed documents — the server writes its trace on
   exit even when it served nothing. *)
let test_export_empty_sink () =
  let s = mk_sink () in
  String.split_on_char '\n' (Export.metrics_jsonl s)
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match Json.of_string line with
         | Ok (Json.Obj _) -> ()
         | _ -> Alcotest.failf "metrics line malformed: %s" line);
  (match
     Export.series_csv s |> String.split_on_char '\n'
     |> List.filter (fun l -> l <> "")
   with
  | [ header ] ->
      Alcotest.(check bool) "header row" true
        (String.length header > 0 && String.contains header ',')
  | lines -> Alcotest.failf "expected header only, got %d lines"
               (List.length lines));
  match Json.of_string (Export.chrome_trace s) with
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List _) -> ()
      | _ -> Alcotest.fail "empty trace has no traceEvents list")
  | Error e -> Alcotest.failf "empty trace does not parse: %s" e

let test_export_one_sample_series () =
  let s = mk_sink () in
  Sink.sample s ~t_ps:500 ~cycles:1 ~ipc:0.5
    ~mhz:[| 1000.0; 1000.0; 1000.0; 1000.0 |]
    ~volt:[| 1.2; 1.2; 1.2; 1.2 |]
    ~occ:[| 0.0; 0.0; 0.0; 0.0 |]
    ~pj:[| 1.0; 1.0; 1.0; 1.0; 0.0 |];
  match
    Export.series_csv s |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  with
  | [ header; row ] ->
      let cols l = List.length (String.split_on_char ',' l) in
      Alcotest.(check int) "row matches header" (cols header) (cols row)
  | lines -> Alcotest.failf "expected header + 1 row, got %d lines"
               (List.length lines)

let test_export_histogram_arity () =
  let s = mk_sink () in
  let m = Sink.metrics s in
  let h = Metrics.histogram m "serve.latency_ms" ~bins:4 in
  Metrics.observe h ~bin:3 ~weight:2.5;
  (* re-registration with a different arity is a programming error, not
     a silent resize *)
  (match Metrics.histogram m "serve.latency_ms" ~bins:8 with
  | (_ : Metrics.histogram) -> Alcotest.fail "bin-count mismatch accepted"
  | exception Invalid_argument _ -> ());
  let line =
    Export.metrics_jsonl s |> String.split_on_char '\n'
    |> List.find (fun l ->
           String.length l > 0
           &&
           match Json.of_string l with
           | Ok j -> Json.member "name" j = Some (Json.String "serve.latency_ms")
           | Error _ -> false)
  in
  match Json.of_string line with
  | Ok j -> (
      (match Json.member "bins" j with
      | Some (Json.Int 4) -> ()
      | _ -> Alcotest.fail "bins field wrong");
      match Json.member "weights" j with
      | Some (Json.List ws) ->
          Alcotest.(check int) "weights arity = bins" 4 (List.length ws)
      | _ -> Alcotest.fail "no weights list")
  | Error e -> Alcotest.failf "histogram line does not parse: %s" e

(* --- Integration: traced profile run -------------------------------- *)

let test_traced_profile_run () =
  (* Run a real MediaBench workload with a sink attached and check the
     trace reconstructs the run: every non-noop reconfiguration write in
     the event stream chains before -> after, the count agrees with the
     run's own reconfiguration counter, and samples landed. *)
  let sink = Sink.create ~domains:Domain.count () in
  let run =
    let w = Mcd_workloads.Mediabench.adpcm_decode in
    Mcd_experiments.Runner.(
      policy_run ~sink (profile_policy ~context:Mcd_profiling.Context.lf w) w)
  in
  let m = Sink.metrics sink in
  let counter name = Metrics.value (Metrics.counter m name) in
  Alcotest.(check int) "reconfig counter matches the run"
    run.Mcd_power.Metrics.reconfigurations
    (counter "obs.reconfig_writes");
  Alcotest.(check int) "sync penalties mirrored"
    run.Mcd_power.Metrics.sync_penalties
    (counter "obs.sync_penalties");
  Alcotest.(check bool) "samples recorded" true (counter "obs.samples" > 0);
  Alcotest.(check int) "series rows = samples" (counter "obs.samples")
    (Series.length (Sink.series sink));
  (* the non-noop reconfig events chain: each write starts from the
     previous one's after-setting, the first from full speed *)
  let writes =
    List.filter_map
      (function
        | Sink.Reconfig_write { before; after; noop = false; _ } ->
            Some (before, after)
        | _ -> None)
      (Sink.events sink)
  in
  Alcotest.(check int) "all writes retained by the control ring"
    run.Mcd_power.Metrics.reconfigurations (List.length writes);
  let full = Array.make Domain.count 1000 in
  let _ =
    List.fold_left
      (fun prev (before, after) ->
        Alcotest.(check (array int)) "chained before = previous after"
          prev before;
        after)
      full writes
  in
  ()

(* An attached sink is a side channel: the observed run must encode to
   the plain run's bytes, down to the last bit of every float, for every
   policy. The generated spec is one a seeded campaign draws; its
   on-line run once drifted by one ulp of floating-domain energy because
   sampling the operating point advanced the slew ramp. An observed run
   is stored under its exact-mode key, so the plain runs are computed
   first, from empty memos with the store off, and the memos are
   cleared again before the observed runs: neither side can read the
   other's result. *)
let test_observed_run_equals_plain () =
  let module Runner = Mcd_experiments.Runner in
  let module Store = Mcd_cache.Store in
  let generated =
    Mcd_gen.Spec.workload
      (Mcd_gen.Spec.draw ~train_insts:12_000 ~ref_insts:30_000
         ~seed:4344337351877135807 ())
  in
  let store = Store.default () in
  Store.set_default None;
  Fun.protect ~finally:(fun () ->
      Store.set_default store;
      Runner.clear_caches ())
  @@ fun () ->
  List.iter
    (fun (w : Mcd_workloads.Workload.t) ->
      let policies =
        Mcd_control.Policies.all ()
        @ [
            Runner.offline_policy w;
            Runner.profile_policy ~context:Mcd_profiling.Context.lf w;
          ]
      in
      let encode_each run =
        List.map
          (fun (p : Mcd_control.Policy.t) ->
            (p.Mcd_control.Policy.label, Mcd_power.Metrics.encode (run p)))
          policies
      in
      Runner.clear_caches ();
      let plain = encode_each (fun p -> Runner.policy_run p w) in
      Runner.clear_caches ();
      let observed =
        encode_each (fun p ->
            Runner.policy_run ~sink:(Sink.create ~domains:Domain.count ()) p w)
      in
      List.iter2
        (fun (label, plain) (_, observed) ->
          Alcotest.(check string)
            (w.Mcd_workloads.Workload.name ^ " " ^ label)
            plain observed)
        plain observed)
    [ generated; Mcd_workloads.Mediabench.adpcm_decode ]

let suite =
  [
    ("ring basic", `Quick, test_ring_basic);
    ("ring overwrites oldest", `Quick, test_ring_overwrites_oldest);
    ("ring clear", `Quick, test_ring_clear);
    ("ring rejects bad capacity", `Quick, test_ring_rejects_bad_capacity);
    ("metrics counter", `Quick, test_metrics_counter);
    ("metrics gauge", `Quick, test_metrics_gauge);
    ("metrics histogram", `Quick, test_metrics_histogram);
    ("metrics kind mismatch", `Quick, test_metrics_kind_mismatch);
    ("metrics iteration order", `Quick, test_metrics_iteration_order);
    ("series append/get", `Quick, test_series_append_get);
    ("series arity checked", `Quick, test_series_arity_checked);
    ("sink event merge ordered", `Quick, test_sink_event_merge_ordered);
    ("sink counters survive eviction", `Quick,
     test_sink_counters_survive_eviction);
    ("sink copies settings", `Quick, test_sink_copies_settings);
    ("json roundtrip", `Quick, test_json_roundtrip);
    ("json rejects garbage", `Quick, test_json_rejects_garbage);
    ("json escapes", `Quick, test_json_escapes);
    ("export metrics jsonl", `Quick, test_export_metrics_jsonl_parses);
    ("export csv shape", `Quick, test_export_csv_shape);
    ("export chrome trace", `Quick, test_export_chrome_trace_parses);
    ("export empty sink", `Quick, test_export_empty_sink);
    ("export one-sample series", `Quick, test_export_one_sample_series);
    ("export histogram arity", `Quick, test_export_histogram_arity);
    ("traced profile run", `Slow, test_traced_profile_run);
    ("observed run equals plain run", `Slow, test_observed_run_equals_plain);
  ]
