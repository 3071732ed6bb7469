(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables 1-4, Figures 4-12), the ablation benches from
   DESIGN.md, and — under --micro — Bechamel micro-benchmarks of the
   analysis kernels.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --only fig4  # one experiment
     dune exec bench/main.exe -- --quick      # reduced suite (CI-sized)
     dune exec bench/main.exe -- --jobs 4     # fan experiments out on 4 cores
     dune exec bench/main.exe -- --sample --json BENCH_pr7.json  # perf artifact
     dune exec bench/main.exe -- --cache-dir .cache     # cold+warm passes
     dune exec bench/main.exe -- --trace-dir traces     # obs trace bundles
     dune exec bench/main.exe -- --micro      # Bechamel kernels
     dune exec bench/main.exe -- --list       # available ids *)

module Suite = Mcd_workloads.Suite
module Runner = Mcd_experiments.Runner
module Headline = Mcd_experiments.Headline
module Context_sense = Mcd_experiments.Context_sense
module Sweep = Mcd_experiments.Sweep
module Tables = Mcd_experiments.Tables
module Ablations = Mcd_experiments.Ablations

let quick_suite () =
  List.map Suite.by_name
    [ "adpcm decode"; "gsm encode"; "mpeg2 decode"; "mcf"; "applu" ]

let quick_contexts () =
  [ Mcd_profiling.Context.lfcp; Mcd_profiling.Context.lf;
    Mcd_profiling.Context.f ]

(* Shared row sets are cached at the harness level (keyed by --quick),
   not only in Runner: with --jobs > 1 the simulations happen on
   short-lived worker domains whose memo tables die with them, so
   without this cache fig5/fig6 would re-simulate everything fig4 just
   computed. The harness itself is single-domain, so plain laziness per
   key is safe. Tables register themselves so the warm-cache pass can
   reset every in-memory layer and measure the disk store alone. *)
let harness_resets : (unit -> unit) list ref = ref []

let harness_table () =
  let tbl = Hashtbl.create 2 in
  harness_resets := (fun () -> Hashtbl.reset tbl) :: !harness_resets;
  tbl

let reset_harness_caches () = List.iter (fun f -> f ()) !harness_resets

let cached tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.add tbl key v;
      v

let headline_rows =
  let tbl = harness_table () in
  fun ~quick ->
    cached tbl quick @@ fun () ->
    let workloads = if quick then quick_suite () else Suite.all in
    Headline.rows ~workloads ()

let context_rows =
  let tbl = harness_table () in
  fun ~quick ->
    cached tbl quick @@ fun () ->
    if quick then
      Context_sense.rows
        ~workloads:(List.map Suite.by_name [ "mpeg2 decode"; "adpcm decode" ])
        ~contexts:(quick_contexts ()) ()
    else Context_sense.rows ()

let table4_rows =
  let tbl = harness_table () in
  fun ~quick ->
    cached tbl quick @@ fun () ->
    let workloads = if quick then quick_suite () else Suite.all in
    Context_sense.rows ~workloads ~contexts:[ Mcd_profiling.Context.lfcp ] ()

let sweep_args ~quick =
  if quick then
    ( Some (List.map Suite.by_name [ "gsm encode"; "applu" ]),
      Some [ 4.0; 8.0; 12.0 ],
      Some [ 0.985; 0.93 ] )
  else (None, None, None)

(* fig10 and fig11 plot the same three curves *)
let sweep_curves =
  let tbl = Hashtbl.create 2 in
  fun ~quick ->
    cached tbl quick @@ fun () ->
    let workloads, deltas, guards = sweep_args ~quick in
    ( Sweep.offline_curve ?workloads ?deltas (),
      Sweep.online_curve ?workloads ?guards (),
      Sweep.profile_curve ?workloads ?deltas () )

type experiment = { id : string; descr : string; run : quick:bool -> string }

let experiments =
  [
    { id = "table1"; descr = "simulated configuration";
      run = (fun ~quick:_ -> Tables.table1 ()) };
    { id = "table2"; descr = "benchmarks and instruction windows";
      run = (fun ~quick:_ -> Tables.table2 ()) };
    { id = "table3"; descr = "call-tree nodes and train/ref coverage";
      run =
        (fun ~quick ->
          if quick then Tables.table3 ~workloads:(quick_suite ()) ()
          else Tables.table3 ()) };
    { id = "fig4"; descr = "performance degradation per benchmark";
      run = (fun ~quick -> Headline.fig4 (headline_rows ~quick)) };
    { id = "fig5"; descr = "energy savings per benchmark";
      run = (fun ~quick -> Headline.fig5 (headline_rows ~quick)) };
    { id = "fig6"; descr = "energy x delay improvement per benchmark";
      run = (fun ~quick -> Headline.fig6 (headline_rows ~quick)) };
    { id = "fig7"; descr = "min/avg/max summary incl. global DVS";
      run =
        (fun ~quick ->
          Headline.fig7 (Headline.summary (headline_rows ~quick))) };
    { id = "fig8"; descr = "context sensitivity: performance";
      run = (fun ~quick -> Context_sense.fig8 (context_rows ~quick)) };
    { id = "fig9"; descr = "context sensitivity: energy";
      run = (fun ~quick -> Context_sense.fig9 (context_rows ~quick)) };
    { id = "fig10"; descr = "energy savings vs slowdown sweep";
      run =
        (fun ~quick ->
          let offline, online, profile = sweep_curves ~quick in
          Sweep.fig10 ~offline ~online ~profile) };
    { id = "fig11"; descr = "energy x delay vs slowdown sweep";
      run =
        (fun ~quick ->
          let offline, online, profile = sweep_curves ~quick in
          Sweep.fig11 ~offline ~online ~profile) };
    { id = "fig12"; descr = "instrumentation cost by context";
      run = (fun ~quick -> Context_sense.fig12 (context_rows ~quick)) };
    { id = "table4"; descr = "static/dynamic points and overhead (L+F+C+P)";
      run = (fun ~quick -> Context_sense.table4 (table4_rows ~quick)) };
    { id = "ablation-sync"; descr = "MCD synchronization penalty";
      run =
        (fun ~quick ->
          if quick then
            Ablations.sync_penalty
              ~workloads:(List.map Suite.by_name [ "gsm encode"; "mcf" ])
              ()
          else Ablations.sync_penalty ()) };
    { id = "ablation-shaker"; descr = "shaker pass budget";
      run =
        (fun ~quick ->
          if quick then Ablations.shaker_passes ~passes:[ 1; 24 ] ()
          else Ablations.shaker_passes ()) };
    { id = "ablation-window"; descr = "long-running threshold sensitivity";
      run =
        (fun ~quick ->
          if quick then Ablations.long_threshold ~thresholds:[ 10_000 ] ()
          else Ablations.long_threshold ()) };
    { id = "ablation-core"; descr = "profile-based DVFS on a narrow core";
      run =
        (fun ~quick ->
          if quick then
            Ablations.narrow_core
              ~workloads:[ Suite.by_name "gsm encode" ]
              ()
          else Ablations.narrow_core ()) };
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the analysis kernels                    *)
(* ------------------------------------------------------------------ *)

let micro_benches () =
  let open Bechamel in
  let w = Suite.by_name "gsm encode" in
  let module W = Mcd_workloads.Workload in
  let tree () =
    Mcd_profiling.Call_tree.build w.W.program ~input:w.W.train
      ~context:Mcd_profiling.Context.lfcp ~max_insts:50_000 ()
  in
  let segment =
    lazy
      (let t = tree () in
       let col = Mcd_trace.Collector.create ~tree:t () in
       let _ =
         Mcd_cpu.Pipeline.run
           ~probe:(Mcd_trace.Collector.probe col)
           ~config:Mcd_cpu.Config.alpha21264_like ~program:w.W.program
           ~input:w.W.train ~max_insts:30_000 ()
       in
       match Mcd_trace.Collector.segments col with
       | (_, seg :: _) :: _ -> seg
       | (_, []) :: _ | [] -> [||])
  in
  let dag = lazy (Mcd_core.Dag.build (Lazy.force segment)) in
  let hist =
    lazy
      (let r = Mcd_core.Shaker.run (Lazy.force dag) in
       r.Mcd_core.Shaker.histograms.(0))
  in
  [
    Test.make ~name:"call-tree-build-50k" (Staged.stage tree);
    Test.make ~name:"dag-build"
      (Staged.stage (fun () -> Mcd_core.Dag.build (Lazy.force segment)));
    Test.make ~name:"shaker-run"
      (Staged.stage (fun () -> Mcd_core.Shaker.run (Lazy.force dag)));
    Test.make ~name:"path-signatures"
      (Staged.stage (fun () ->
           Mcd_core.Dag.path_signatures (Lazy.force dag)));
    Test.make ~name:"threshold-choose"
      (Staged.stage (fun () ->
           Mcd_core.Threshold.choose (Lazy.force hist) ~slowdown_pct:7.0));
    Test.make ~name:"pipeline-10k-insts"
      (Staged.stage (fun () ->
           Mcd_cpu.Pipeline.run ~config:Mcd_cpu.Config.alpha21264_like
             ~program:w.W.program ~input:w.W.train ~max_insts:10_000 ()));
    Test.make ~name:"tracker-walk-20k"
      (Staged.stage (fun () ->
           let t = tree () in
           let tracker = Mcd_profiling.Tracker.create t in
           let walker = Mcd_isa.Walker.create w.W.program ~input:w.W.train in
           let rec go n =
             if n < 20_000 then
               match Mcd_isa.Walker.next walker with
               | None -> ()
               | Some (Mcd_isa.Walker.Inst _) -> go (n + 1)
               | Some (Mcd_isa.Walker.Marker m) ->
                   ignore (Mcd_profiling.Tracker.on_marker tracker m);
                   go n
           in
           go 0));
    Test.make ~name:"coverage-compare"
      (Staged.stage (fun () ->
           let a = tree () and b = tree () in
           Mcd_profiling.Coverage.compare ~train:a ~reference:b));
    Test.make ~name:"editor-build"
      (Staged.stage (fun () ->
           let plan, _ =
             Mcd_core.Analyze.analyze ~program:w.W.program ~train:w.W.train
               ~context:Mcd_profiling.Context.lf ~profile_insts:30_000
               ~trace_insts:10_000 ()
           in
           Mcd_core.Editor.edit plan));
  ]

let run_micro () =
  let open Bechamel in
  let clock = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) () in
      let raw = Benchmark.all cfg [ clock ] test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          clock raw
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> Printf.printf "%-28s %12.0f ns/run\n%!" name est
          | Some [] | None -> Printf.printf "%-28s (no estimate)\n%!" name)
        results)
    (micro_benches ())

(* ------------------------------------------------------------------ *)
(* BENCH JSON artifact: wall-clock per experiment plus the simulated
   headline metrics, the repo's perf trajectory record.               *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Per-workload per-policy drift of the sampled headline numbers
   against the exact pass — the artifact's record that sampling stayed
   inside its accuracy budget. Percentages, so diffs are in points. *)
let drift_fields ~exact_rows ~sampled_rows =
  let diffs extract =
    List.concat_map
      (fun (r : Headline.row) ->
        match
          List.find_opt
            (fun (e : Headline.row) ->
              e.Headline.workload.Mcd_workloads.Workload.name
              = r.Headline.workload.Mcd_workloads.Workload.name)
            exact_rows
        with
        | None -> []
        | Some e ->
            List.map
              (fun kind -> Float.abs (extract (kind r) -. extract (kind e)))
              [
                (fun (x : Headline.row) -> x.Headline.offline);
                (fun x -> x.Headline.online);
                (fun x -> x.Headline.profile);
              ])
      sampled_rows
  in
  let max_of xs = List.fold_left Float.max 0.0 xs in
  Printf.sprintf
    "\"max_abs_degradation_pp\": %.6f, \"max_abs_savings_pp\": %.6f, \
     \"max_abs_ed_pp\": %.6f"
    (max_of (diffs (fun c -> c.Runner.degradation_pct)))
    (max_of (diffs (fun c -> c.Runner.savings_pct)))
    (max_of (diffs (fun c -> c.Runner.ed_improvement_pct)))

let write_json ~path ~quick ~jobs ~timings ~total_s ~warm ~sample ~exact =
  let rows = headline_rows ~quick in
  let cmp_fields (c : Runner.comparison) =
    Printf.sprintf
      "\"degradation_pct\": %.6f, \"savings_pct\": %.6f, \
       \"ed_improvement_pct\": %.6f"
      c.Runner.degradation_pct c.Runner.savings_pct c.Runner.ed_improvement_pct
  in
  let workload_json (r : Headline.row) =
    Printf.sprintf
      "    {\"name\": \"%s\", \"offline\": {%s}, \"online\": {%s}, \
       \"profile_lf\": {%s}}"
      (json_escape r.Headline.workload.Mcd_workloads.Workload.name)
      (cmp_fields r.Headline.offline)
      (cmp_fields r.Headline.online)
      (cmp_fields r.Headline.profile)
  in
  let timing_json (id, seconds) =
    let exact_col =
      match exact with
      | None -> ""
      | Some (exact_timings, _, _) -> (
          match List.assoc_opt id exact_timings with
          | Some s -> Printf.sprintf ", \"exact_wall_s\": %.3f" s
          | None -> "")
    in
    let warm_col =
      match warm with
      | None -> ""
      | Some (warm_timings, _, _) -> (
          match List.assoc_opt id warm_timings with
          | Some s -> Printf.sprintf ", \"warm_wall_s\": %.3f" s
          | None -> "")
    in
    Printf.sprintf "    {\"id\": \"%s\", \"wall_s\": %.3f%s%s}"
      (json_escape id) seconds exact_col warm_col
  in
  let avg extract kind =
    Mcd_util.Stats.mean (List.map (fun r -> extract (kind r)) rows)
  in
  let avg_json name kind =
    Printf.sprintf
      "    \"%s\": {\"degradation_pct\": %.6f, \"savings_pct\": %.6f, \
       \"ed_improvement_pct\": %.6f}"
      name
      (avg (fun c -> c.Runner.degradation_pct) kind)
      (avg (fun c -> c.Runner.savings_pct) kind)
      (avg (fun c -> c.Runner.ed_improvement_pct) kind)
  in
  let warm_fields =
    match warm with
    | None -> ""
    | Some (_, warm_total_s, identical) ->
        Printf.sprintf
          "  \"warm_total_wall_s\": %.3f,\n\
          \  \"warm_outputs_identical\": %b,\n"
          warm_total_s identical
  in
  let exact_fields =
    match exact with
    | None -> ""
    | Some (_, exact_total_s, exact_rows) ->
        Printf.sprintf
          "  \"sampled_vs_exact\": {\"exact_total_wall_s\": %.3f, \
           \"cold_speedup\": %.3f, %s},\n"
          exact_total_s
          (exact_total_s /. Float.max total_s 1e-9)
          (drift_fields ~exact_rows ~sampled_rows:rows)
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"mcd-dvfs-bench/4\",\n\
    \  \"mode\": \"%s\",\n\
    \  \"quick\": %b,\n\
    \  \"jobs\": %d,\n\
    \  \"host_cores\": %d,\n\
    \  \"total_wall_s\": %.3f,\n\
     %s%s\
    \  \"experiments\": [\n%s\n  ],\n\
    \  \"headline_avg\": {\n%s\n  },\n\
    \  \"headline_workloads\": [\n%s\n  ]\n\
     }\n"
    (if sample then "sampled" else "exact")
    quick jobs
    (Mcd_util.Par.recommended_jobs ())
    total_s warm_fields exact_fields
    (String.concat ",\n" (List.map timing_json (List.rev timings)))
    (String.concat ",\n"
       [
         avg_json "offline" (fun r -> r.Headline.offline);
         avg_json "online" (fun r -> r.Headline.online);
         avg_json "profile_lf" (fun r -> r.Headline.profile);
       ])
    (String.concat ",\n" (List.map workload_json rows));
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* --trace-dir: after the experiments, re-run the quick/full suite's
   profile policy with the observability sink attached and export one
   trace bundle per workload. Separate passes on purpose — the traced
   runs bypass Runner's memo tables, so the timed experiments above
   stay untraced and their wall clock honest. *)
let sanitize_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    name

let trace_suite ~quick ~dir =
  let workloads = if quick then quick_suite () else Suite.all in
  let domain_names =
    Array.of_list (List.map Mcd_domains.Domain.name Mcd_domains.Domain.all)
  in
  List.iter
    (fun w ->
      let name = w.Mcd_workloads.Workload.name in
      let sink = Mcd_obs.Sink.create ~domains:Mcd_domains.Domain.count () in
      let t0 = Mcd_util.Time.now_s () in
      let _run =
        Runner.policy_run ~sink
          (Runner.profile_policy ~context:Mcd_profiling.Context.lf w)
          w
      in
      let dt = Mcd_util.Time.now_s () -. t0 in
      let sub = Filename.concat dir (sanitize_name name) in
      ignore (Mcd_obs.Export.write_dir ~domain_names ~dir:sub sink : string list);
      Printf.printf "traced %-16s -> %s (%.1fs, %d samples, %d events)\n%!"
        name sub dt
        (Mcd_obs.Series.length (Mcd_obs.Sink.series sink))
        (List.length (Mcd_obs.Sink.events sink)))
    workloads

let run_experiments only quick list_only micro jobs json_path trace_dir
    cache_dir fresh_cache sample =
  if list_only then begin
    List.iter (fun e -> Printf.printf "%-16s %s\n" e.id e.descr) experiments;
    `Ok ()
  end
  else if micro then begin
    run_micro ();
    `Ok ()
  end
  else begin
    Runner.set_jobs jobs;
    (match cache_dir with
    | Some dir ->
        Mcd_cache.Store.set_default (Some (Mcd_cache.Store.create ~dir))
    | None -> ignore (Mcd_cache.Store.default () : Mcd_cache.Store.t option));
    (match Mcd_cache.Store.default () with
    | Some store when fresh_cache ->
        let removed, freed = Mcd_cache.Store.gc store in
        Printf.printf "fresh cache %s: removed %d objects (%d bytes)\n%!"
          (Mcd_cache.Store.dir store) removed freed
    | _ -> ());
    let selected =
      match only with
      | [] -> experiments
      | ids ->
          List.map
            (fun id ->
              match List.find_opt (fun e -> e.id = id) experiments with
              | Some e -> e
              | None ->
                  Printf.eprintf "unknown experiment id: %s (try --list)\n"
                    id;
                  exit 2)
            ids
    in
    let run_pass ~tag =
      let t_start = Mcd_util.Time.now_s () in
      let results =
        List.map
          (fun e ->
            let t0 = Mcd_util.Time.now_s () in
            let out = e.run ~quick in
            let dt = Mcd_util.Time.now_s () -. t0 in
            (match tag with
            | Some t -> Printf.printf "=== %s %s: %.1fs\n%!" t e.id dt
            | None ->
                Printf.printf "=== %s: %s (%.1fs)\n%s\n%!" e.id e.descr dt out);
            (e.id, dt, out))
          selected
      in
      (results, Mcd_util.Time.now_s () -. t_start)
    in
    (* Under --sample, run an exact cold pass first: its headline rows
       are the reference the sampled rows are drifted against, and its
       wall clocks land in the artifact's exact_wall_s column. Exact
       and sampled results live under disjoint cache keys, so the
       sampled cold pass below stays genuinely cold. *)
    let exact =
      if not sample then None
      else begin
        Runner.set_sim_mode Runner.Exact;
        Printf.printf "=== exact pass (drift reference for --sample)\n%!";
        let results, total = run_pass ~tag:(Some "exact") in
        let rows = headline_rows ~quick in
        Runner.clear_caches ();
        reset_harness_caches ();
        Runner.set_sim_mode
          (Runner.Sampled Mcd_cpu.Sampler.default_params);
        Some (List.map (fun (id, dt, _) -> (id, dt)) results, total, rows)
      end
    in
    let cold, cold_total = run_pass ~tag:None in
    (* With a persistent store active, run everything a second time with
       every in-memory layer dropped: what remains is the disk cache.
       Byte-comparing the rendered tables is the cold-vs-warm
       determinism check — a decode bug can't slip through as a
       plausible-looking number. *)
    let warm =
      match Mcd_cache.Store.default () with
      | None -> None
      | Some store ->
          Printf.printf
            "=== warm pass (memo tables cleared; serving from %s)\n%!"
            (Mcd_cache.Store.dir store);
          Runner.clear_caches ();
          reset_harness_caches ();
          let warm_results, warm_total = run_pass ~tag:(Some "warm") in
          let identical =
            List.for_all2
              (fun (_, _, a) (_, _, b) -> String.equal a b)
              cold warm_results
          in
          let s = Mcd_cache.Store.stats store in
          Printf.printf
            "warm pass: %.1fs vs cold %.1fs (%.0f%%), outputs %s \
             (cache: %d hits, %d misses, %d corrupt)\n%!"
            warm_total cold_total
            (100.0 *. warm_total /. Float.max cold_total 1e-9)
            (if identical then "identical" else "DIFFER")
            s.Mcd_cache.Store.hits s.Mcd_cache.Store.misses
            s.Mcd_cache.Store.corrupt;
          if not identical then begin
            List.iter2
              (fun (id, _, a) (_, _, b) ->
                if not (String.equal a b) then
                  Printf.eprintf "cold/warm mismatch in %s\n" id)
              cold warm_results;
            exit 1
          end;
          (* The disk cache must actually pay for itself: any
             experiment whose cold pass was substantial has every
             simulation cached, so its warm replay must come in well
             under cold. Tables 1-3 render live (nothing cache-backed)
             and stay exempt. *)
          let warm_exempt = [ "table1"; "table2"; "table3" ] in
          let violations =
            List.concat
              (List.map2
                 (fun (id, cold_dt, _) (_, warm_dt, _) ->
                   if
                     cold_dt >= 1.0
                     && (not (List.mem id warm_exempt))
                     && warm_dt > 0.5 *. cold_dt
                   then [ (id, cold_dt, warm_dt) ]
                   else [])
                 cold warm_results)
          in
          if violations <> [] then begin
            List.iter
              (fun (id, c, w) ->
                Printf.eprintf
                  "warm pass not faster in %s: cold %.1fs, warm %.1fs\n" id c
                  w)
              violations;
            exit 1
          end;
          Some
            ( List.map (fun (id, dt, _) -> (id, dt)) warm_results,
              warm_total,
              identical )
    in
    (match json_path with
    | None -> ()
    | Some path ->
        let timings = List.rev_map (fun (id, dt, _) -> (id, dt)) cold in
        write_json ~path ~quick ~jobs ~timings ~total_s:cold_total ~warm
          ~sample ~exact);
    (match trace_dir with
    | None -> ()
    | Some dir -> trace_suite ~quick ~dir);
    `Ok ()
  end

let () =
  let open Cmdliner in
  let only =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~docv:"ID"
          ~doc:"Run only the given experiment (repeatable).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Reduced benchmark subset for fast runs.")
  in
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids.")
  in
  let micro =
    Arg.(
      value & flag
      & info [ "micro" ]
          ~doc:"Run Bechamel micro-benchmarks of the analysis kernels.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Fan experiment sweeps out over $(docv) OCaml domains \
             (default 1 = sequential; 0 = all cores). Output is \
             byte-identical at any jobs count.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write wall-clock per experiment and the simulated headline \
             metrics to $(docv) (the perf trajectory artifact).")
  in
  let trace_dir =
    Arg.(
      value & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "After the experiments, re-run the suite's profile policy with \
             the observability sink attached and write one trace bundle \
             (metrics.jsonl, series.csv, trace.json) per workload under \
             $(docv).")
  in
  let cache_dir =
    Arg.(
      value & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persistent result cache directory (overrides the \
             $(b,MCD_DVFS_CACHE) environment variable). With a cache \
             active the selected experiments run twice — a cold pass, \
             then a warm pass with every in-memory memo cleared so only \
             the disk store serves — and the JSON artifact records both \
             wall clocks. The run fails if the two passes are not \
             byte-identical.")
  in
  let fresh_cache =
    Arg.(
      value & flag
      & info [ "fresh-cache" ]
          ~doc:"Empty the cache store before the cold pass.")
  in
  let sample =
    Arg.(
      value
      & vflag false
          [
            ( true,
              info [ "sample" ]
                ~doc:
                  "Run production simulations under phase sampling \
                   ($(b,Mcd_cpu.Sampler) defaults): repeating call-tree \
                   phases are simulated once per frequency-vector \
                   signature and extrapolated. An exact cold pass runs \
                   first as the drift reference; the JSON artifact gains \
                   exact_wall_s and sampled_vs_exact drift columns. \
                   Sampled results are cached under their own keys and \
                   never mix with exact ones." );
            ( false,
              info [ "exact" ]
                ~doc:"Exact cycle-level simulation (the default)." );
          ])
  in
  let jobs_resolved =
    Term.(
      const (fun j -> if j <= 0 then Mcd_util.Par.recommended_jobs () else j)
      $ jobs)
  in
  let term =
    Term.(
      ret
        (const run_experiments $ only $ quick $ list_only $ micro
       $ jobs_resolved $ json $ trace_dir $ cache_dir $ fresh_cache $ sample))
  in
  let info =
    Cmd.info "mcd-bench"
      ~doc:"Regenerate the paper's tables and figures on the simulator"
  in
  exit (Cmd.eval (Cmd.v info term))
