(* The benchmark executable. One workload per process, from an empty
   store under the current directory:

     perfbench.exe run --workload W --seed N --seconds S --trace 0|1
         --reference DIR
     perfbench.exe exact-ref --reference DIR [--check]
     perfbench.exe goldens --reference DIR

   [run] prints one JSON line: operations attempted and failed, the
   end-to-end metrics, and (traced) the per-layer metrics; it writes the
   outputs a traced run must reproduce to outputs.txt and the spans to
   spans.jsonl. [exact-ref] computes headline-cold's cells in exact mode
   into the drift reference. [goldens] writes the reference outputs from
   the experiments layer's own composites. python3 perfbench/run.py
   builds this and drives it. *)

module Runner = Mcd_experiments.Runner
module Json = Mcd_obs.Json

(* When the process was spawned, on the same monotonic clock: run.py
   passes its own reading taken just before the spawn, so set-up time
   includes runtime start and library initialisation. *)
let process_start =
  let rec find = function
    | "--spawn-ns" :: v :: _ -> Int64.to_float (Int64.of_string v) /. 1e9
    | _ :: rest -> find rest
    | [] -> Span.now_s ()
  in
  find (Array.to_list Sys.argv)

let per_layer (r : Measure.t) =
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let c = Span.counter and t = Span.total in
  let splits =
    Hashtbl.fold
      (fun k v acc ->
        match String.index_opt k '.' with
        | Some i when String.sub k 0 i = "exact_s" ->
            let part = String.sub k (i + 1) (String.length k - i - 1) in
            ( "cpu.ns_per_cycle." ^ part,
              ratio (v *. 1e9) (Span.counter ("cycles." ^ part)) )
            :: acc
        | _ -> acc)
      Span.counters []
  in
  [
    ("profiling.walk_s", t "profiling.walk");
    ("profiling.insts", c "profiling.insts");
    ("trace.run_s", t "trace.run");
    ("trace.events", c "trace.events");
    ("core.dag_s", t "core.dag");
    ("core.dag_events", c "core.dag_events");
    ("core.shaker_s", t "core.shaker");
    ("core.shaker_passes", c "core.shaker_passes");
    ("core.stretched_ratio", ratio (c "core.stretched_events") (c "core.total_events"));
    ("core.paths_s", t "core.paths");
    ("core.plan_s", t "core.plan");
    ("core.plan_io_s", t "core.plan_io");
    ("core.analyze_s", t "core.analyze");
    ("cpu.exact_s", t "cpu.exact");
    ("cpu.cycles", c "cpu.cycles");
    ("cpu.ns_per_cycle", ratio (t "cpu.exact" *. 1e9) (c "cpu.cycles"));
    ("cpu.sampled_s", t "cpu.sampled");
    ("cpu.skipped_insts", c "cpu.skipped_insts");
    ("cpu.skip_ratio", ratio (c "cpu.skipped_insts") (c "cpu.sampled_insts"));
    ("cpu.unstable_sigs", c "cpu.unstable_sigs");
    ("cache.key_s", t "cache.key");
    ("cache.find_s", t "cache.find");
    ("cache.add_s", t "cache.add");
    ("power.codec_s", t "power.codec");
    ("gen.draw_s", t "gen.draw");
    ("gen.assert_s", t "gen.assert");
    ("gen.specs", c "gen.specs");
    ("gen.shrink_evals", c "gen.shrink_evals");
    ("obs.observed_s", t "obs.observed");
    ("obs.overhead_ratio", ratio (c "obs.paired_observed_s") (c "obs.paired_plain_s"));
    ("serve.rejected", c "serve.rejected");
    ("experiments.self_s", Span.self_seconds "experiments");
  ]
  @ splits @ r.layers

let end_to_end (r : Measure.t) =
  let ops_per_s =
    match r.ops_per_s with
    | Some v -> v
    | None -> float_of_int r.ops /. r.measured_s
  in
  let rss =
    match r.peak_rss_mb with Some v -> v | None -> Measure.peak_rss_mb None
  in
  [
    ("setup_s", r.setup_s);
    ("ops_per_s", ops_per_s);
    ("peak_rss_mb", rss);
  ]

let json_num v = if Float.is_finite v then Json.Float v else Json.Null

let report ~workload (r : Measure.t) ~traced =
  Textfile.write "." "outputs.txt" (Buffer.contents r.outputs);
  if traced then Textfile.write "." "spans.jsonl" (Span.to_jsonl (Span.spans ()));
  let metrics = if traced then per_layer r else end_to_end r in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.String workload);
            ("host_cores", Json.Int (Domain.recommended_domain_count ()));
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("measured_s", Json.Float r.measured_s);
            ("notes", Json.List (List.rev_map (fun s -> Json.String s) r.notes));
            ("metrics", Json.Obj (List.map (fun (k, v) -> (k, json_num v)) metrics));
          ]))

let run ~workload ~seed ~seconds ~traced ~reference =
  Span.enabled := traced;
  let r = Measure.create () in
  let store_dir = "store" in
  let go () =
    match workload with
    | "headline-cold" -> Cold.headline ~r ~traced ~reference ~seconds ~store_dir ~process_start
    | "campaign-gen" -> Cold.campaign ~r ~traced ~reference ~seconds ~store_dir ~process_start
    | "serve-warm" -> Serve_warm.run ~r ~seed ~seconds ~process_start
    | w -> failwith ("unknown workload " ^ w)
  in
  match go () with
  | () -> report ~workload r ~traced
  | exception Measure.Setup_done s ->
      print_endline (Json.to_string (Json.Obj [ ("setup_s", Json.Float s) ]))

(* headline-cold's cells in exact mode, from an empty store of their
   own: the reference drift_pp is measured against. *)
let exact_ref ~reference ~check =
  ignore (Measure.fresh_store "store-exact");
  Runner.set_sim_mode Runner.Exact;
  let cells =
    List.map
      (fun name ->
        let w = Mcd_workloads.Suite.by_name name in
        (name, List.map (fun call -> call ()) (Cold.headline_cells w)))
      Cold.headline_programs
  in
  let json = Json.to_string (Cold.cells_json cells) in
  if check then begin
    if Textfile.read reference "headline-exact.json" = Some json then
      print_endline "exact reference matches"
    else begin
      prerr_endline "exact reference differs from a fresh exact run";
      exit 1
    end
  end
  else Textfile.write reference "headline-exact.json" json

(* Reference outputs from the composites themselves, each from an
   empty store. *)
let goldens ~reference =
  ignore (Measure.fresh_store "store-golden-h");
  Runner.set_sim_mode (Runner.Sampled Mcd_cpu.Sampler.default_params);
  let ws = List.map Mcd_workloads.Suite.by_name Cold.headline_programs in
  ignore (Mcd_experiments.Headline.rows ~workloads:ws ());
  let cells =
    List.map
      (fun (w : Mcd_workloads.Workload.t) ->
        (w.Mcd_workloads.Workload.name, List.map (fun call -> call ()) (Cold.headline_cells w)))
      ws
  in
  Textfile.write reference "headline-sampled.json" (Json.to_string (Cold.cells_json cells));
  ignore (Measure.fresh_store "store-golden-c");
  Runner.set_sim_mode Runner.Exact;
  let report = Mcd_experiments.Campaign.run ~params:(Cold.campaign_params ()) () in
  Textfile.write reference Cold.campaign_golden
    (Json.to_string (Mcd_experiments.Campaign.to_json report))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let get name =
    match opt name args with
    | Some v -> v
    | None ->
        prerr_endline ("perfbench: missing " ^ name);
        exit 2
  in
  let reference = get "--reference" in
  match args with
  | "run" :: _ ->
      Measure.setup_only := List.mem "--setup-only" args;
      run ~workload:(get "--workload")
        ~seed:(int_of_string (get "--seed"))
        ~seconds:(float_of_string (get "--seconds"))
        ~traced:(get "--trace" = "1") ~reference
  | "exact-ref" :: _ -> exact_ref ~reference ~check:(List.mem "--check" args)
  | "goldens" :: _ -> goldens ~reference
  | _ ->
      prerr_endline "usage: perfbench.exe (run|exact-ref|goldens) ...";
      exit 2
