(* mcd-dvfs: command-line driver for the MCD DVFS simulator.

     mcd-dvfs suite                         list benchmarks
     mcd-dvfs run mcf --policy profile      simulate one benchmark
     mcd-dvfs tree "gsm encode"             print the training call tree
     mcd-dvfs plan "gsm encode"             print the reconfiguration plan
     mcd-dvfs compare mcf                   baseline/off-line/on-line/L+F
     mcd-dvfs tournament --quick            rank the policy zoo
     mcd-dvfs campaign --count 100          adversarial generated-workload sweep
     mcd-dvfs trace mcf --out dir           traced run + exporters
     mcd-dvfs cache stats                   persistent result cache usage
     mcd-dvfs robustness --seed 7           fault-injection campaign
     mcd-dvfs serve --socket S              experiment daemon
     mcd-dvfs submit mcf --socket S         run a benchmark via the daemon
     mcd-dvfs status --socket S [ID]        job state / server stats
     mcd-dvfs drain --socket S              graceful daemon shutdown

   Exit codes are documented once, in the top-level EXIT STATUS section
   ([exits] below): 0 success, 1 campaign failure, 2 validation error,
   3 I/O error, 4 server overloaded (see Mcd_robust.Error.exit_code). *)

open Cmdliner

module Suite = Mcd_workloads.Suite
module Workload = Mcd_workloads.Workload
module Context = Mcd_profiling.Context
module Call_tree = Mcd_profiling.Call_tree
module Runner = Mcd_experiments.Runner
module Robustness = Mcd_experiments.Robustness
module Tournament = Mcd_experiments.Tournament
module Campaign = Mcd_experiments.Campaign
module Gspec = Mcd_gen.Spec
module Json = Mcd_obs.Json
module Metrics = Mcd_power.Metrics
module Table = Mcd_util.Table
module Error = Mcd_robust.Error
module Inject = Mcd_robust.Inject
module Server = Mcd_serve.Server
module Client = Mcd_serve.Client
module Sproto = Mcd_serve.Protocol

let workload_arg =
  let parse s =
    match Suite.find_opt s with
    | Some w -> Ok w
    | None ->
        Error (`Msg (Printf.sprintf "unknown benchmark %S (try `suite`)" s))
  in
  let print fmt w = Format.pp_print_string fmt w.Workload.name in
  Arg.conv (parse, print)

let context_arg =
  let parse s =
    match Context.of_name s with
    | c -> Ok c
    | exception Not_found ->
        Error (`Msg (Printf.sprintf "unknown context %S (e.g. L+F)" s))
  in
  let print fmt c = Format.pp_print_string fmt c.Context.name in
  Arg.conv (parse, print)

(* --- persistent result cache ------------------------------------------- *)

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persistent result cache directory (overrides the \
           $(b,MCD_DVFS_CACHE) environment variable). Simulation results \
           are stored content-addressed and reused across invocations.")

(* Flag wins over environment; with neither, caching stays off. *)
let init_cache = function
  | Some dir ->
      Mcd_cache.Store.set_default (Some (Mcd_cache.Store.create ~dir))
  | None -> ignore (Mcd_cache.Store.default ())

(* Load a generated-workload spec from JSON: a bare mcd-gen-spec/1
   object, or any campaign hit/finding/report carrying one. Returns
   the designated exit code on failure. *)
let load_spec path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error (3, "mcd-dvfs: " ^ m)
  | text -> (
      match Json.of_string text with
      | Error e -> Error (2, Printf.sprintf "mcd-dvfs: %s: %s" path e)
      | Ok j -> (
          match Campaign.spec_of_replay_json j with
          | Error e -> Error (2, Printf.sprintf "mcd-dvfs: %s: %s" path e)
          | Ok spec -> Ok spec))

(* The single authoritative exit-code table (mirrors
   Mcd_robust.Error.exit_code). Defined once and threaded through every
   subcommand's info via [cmd_info], so each man page documents the
   same codes and none can drift. [Cmd.Exit.defaults] supplies 0
   (success) and cmdliner's own 123-125, so they are not repeated. *)
let exits =
  Cmd.Exit.info 1 ~doc:"on a robustness campaign failure."
  :: Cmd.Exit.info 2
       ~doc:"on a validation error (rejected plan, malformed request)."
  :: Cmd.Exit.info 3
       ~doc:"on an I/O error (plan file, cache directory, server socket)."
  :: Cmd.Exit.info 4
       ~doc:
         "when the server sheds load (overloaded or draining); back off \
          and retry."
  :: Cmd.Exit.defaults

let cmd_info ?doc name = Cmd.info ?doc name ~exits

(* --- suite ----------------------------------------------------------- *)

let suite_cmd =
  let run () =
    List.iter
      (fun w ->
        Printf.printf "%-16s %-10s %s\n" w.Workload.name
          (Workload.kind_name w.Workload.kind)
          w.Workload.trait)
      Suite.all;
    0
  in
  Cmd.v (cmd_info "suite" ~doc:"List the benchmark suite")
    Term.(const run $ const ())

(* --- run ------------------------------------------------------------- *)

(* The labels Runner.policy_of_name resolves, checked at parsing and
   bound to the workload once it is known; [run] also takes "global",
   the global-DVS bar. *)
let policy_arg labels = Arg.enum (List.map (fun l -> (l, l)) labels)

let print_breakdown (m : Metrics.run) =
  let domains = Mcd_domains.Domain.all in
  let rows =
    List.map
      (fun d ->
        [
          Mcd_domains.Domain.name d;
          Printf.sprintf "%.1f"
            (m.Metrics.per_domain_pj.(Mcd_domains.Domain.index d) /. 1000.0);
          Table.fmt_pct
            (100.0
            *. m.Metrics.per_domain_pj.(Mcd_domains.Domain.index d)
            /. m.Metrics.energy_pj);
        ])
      domains
    @ [
        [
          "external memory";
          Printf.sprintf "%.1f"
            (m.Metrics.per_domain_pj.(Mcd_domains.Domain.count) /. 1000.0);
          Table.fmt_pct
            (100.0
            *. m.Metrics.per_domain_pj.(Mcd_domains.Domain.count)
            /. m.Metrics.energy_pj);
        ];
      ]
  in
  print_string
    (Table.render ~header:[ "domain"; "energy (nJ)"; "share" ] ~rows ())

let run_cmd =
  let run w spec_file policy context breakdown cache_dir sample =
    init_cache cache_dir;
    if sample then
      Runner.set_sim_mode (Runner.Sampled Mcd_cpu.Sampler.default_params);
    match
      match (w, spec_file) with
      | Some w, None -> Ok w
      | None, Some path ->
          Result.map
            (fun spec ->
              let w = Gspec.workload spec in
              Suite.register w;
              w)
            (load_spec path)
      | Some _, Some _ ->
          Error (2, "mcd-dvfs: give either BENCHMARK or --spec, not both")
      | None, None -> Error (2, "mcd-dvfs: missing BENCHMARK (or --spec FILE)")
    with
    | Error (code, msg) ->
        prerr_endline msg;
        code
    | Ok w ->
    let baseline = Runner.baseline w in
    let metrics =
      match Runner.policy_of_name ~context policy w with
      | Some p -> Runner.policy_run p w
      | None (* global *) ->
          let off = Runner.offline_run w in
          let g, mhz =
            Runner.global_dvs_run w
              ~target_runtime_ps:off.Metrics.runtime_ps
          in
          Printf.printf "global frequency: %d MHz\n" mhz;
          g
    in
    Format.printf "%a@." Metrics.pp metrics;
    if breakdown then print_breakdown metrics;
    if metrics != baseline then begin
      let c = Runner.compare_runs ~baseline metrics in
      Format.printf
        "vs baseline: slowdown %.1f%%, energy savings %.1f%%, ExD %+.1f%%@."
        c.Runner.degradation_pct c.Runner.savings_pct
        c.Runner.ed_improvement_pct
    end;
    0
  in
  let w = Arg.(value & pos 0 (some workload_arg) None & info [] ~docv:"BENCHMARK") in
  let spec_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "Simulate a generated workload instead of a named benchmark: \
             $(docv) holds an mcd-gen-spec/1 JSON object (or any campaign \
             finding carrying one, see $(b,campaign)).")
  in
  let policy =
    Arg.(value & opt (policy_arg (Runner.policy_names @ [ "global" ])) "profile"
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:
               "A policy-zoo registry label (see $(b,tournament)), \
                offline, profile or global")
  in
  let context =
    Arg.(value & opt context_arg Context.lf
         & info [ "context" ] ~docv:"CTX"
             ~doc:"Calling-context definition (L+F+C+P, L+F+P, F+C+P, F+P, L+F, F)")
  in
  let breakdown =
    Arg.(value & flag
         & info [ "breakdown" ] ~doc:"Print per-domain energy breakdown")
  in
  let sample =
    Arg.(
      value
      & vflag false
          [
            ( true,
              info [ "sample" ]
                ~doc:
                  "Simulate under phase sampling: repeating call-tree \
                   phases run once per frequency-vector signature and are \
                   extrapolated. Faster, approximate; results are cached \
                   separately from exact ones." );
            ( false,
              info [ "exact" ]
                ~doc:"Exact cycle-level simulation (the default)." );
          ])
  in
  Cmd.v
    (cmd_info "run" ~doc:"Simulate a benchmark under a policy")
    Term.(
      const run $ w $ spec_file $ policy $ context $ breakdown $ cache_dir_arg
      $ sample)

(* --- tree ------------------------------------------------------------ *)

let tree_cmd =
  let run w context reference dot =
    let train = if reference then `Reference else `Train in
    let tree = Runner.training_tree w ~context ~train in
    if dot then print_string (Call_tree.to_dot tree)
    else begin
      Format.printf "%a@." Call_tree.pp tree;
      Format.printf "%d nodes, %d long-running@." (Call_tree.size tree - 1)
        (Call_tree.long_count tree)
    end;
    0
  in
  let w = Arg.(required & pos 0 (some workload_arg) None & info [] ~docv:"BENCHMARK") in
  let context =
    Arg.(value & opt context_arg Context.lfcp
         & info [ "context" ] ~docv:"CTX" ~doc:"Calling-context definition")
  in
  let reference =
    Arg.(value & flag & info [ "reference" ] ~doc:"Profile the reference input")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text")
  in
  Cmd.v
    (cmd_info "tree" ~doc:"Print a benchmark's annotated call tree")
    Term.(const run $ w $ context $ reference $ dot)

(* --- plan ------------------------------------------------------------ *)

let plan_cmd =
  let show plan save =
    Format.printf "%a@." Mcd_core.Plan.pp plan;
    Printf.printf "static points: %d reconfiguration, %d instrumented\n"
      (Mcd_core.Plan.static_reconfig_points plan)
      (Mcd_core.Plan.static_instr_points plan);
    (match save with
    | Some path ->
        Mcd_core.Plan_io.save plan ~path;
        Printf.printf "saved to %s\n" path
    | None -> ());
    0
  in
  let run w context delta save load cache_dir =
    init_cache cache_dir;
    match load with
    | Some path -> (
        match Runner.load_plan w ~context ~path with
        | Error errors ->
            Format.eprintf "%s: rejected:@.%a" path Error.pp_list errors;
            Error.exit_code_of_list errors
        | Ok { Mcd_core.Plan_io.plan; warnings } ->
            if warnings <> [] then
              Format.eprintf "%s: loaded with repairs:@.%a" path Error.pp_list
                warnings;
            show plan save)
    | None ->
        let plan =
          if delta = Runner.default_slowdown_pct then
            Runner.plan_for w ~context ~train:`Train
          else
            Mcd_core.Plan.with_slowdown
              (Runner.plan_for w ~context ~train:`Train)
              ~slowdown_pct:delta
        in
        show plan save
  in
  let w = Arg.(required & pos 0 (some workload_arg) None & info [] ~docv:"BENCHMARK") in
  let context =
    Arg.(value & opt context_arg Context.lf
         & info [ "context" ] ~docv:"CTX" ~doc:"Calling-context definition")
  in
  let delta =
    Arg.(value & opt float Runner.default_slowdown_pct
         & info [ "slowdown" ] ~docv:"PCT" ~doc:"Tolerated slowdown")
  in
  let save =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE" ~doc:"Write the plan to a file")
  in
  let load =
    Arg.(value & opt (some string) None
         & info [ "load" ] ~docv:"FILE"
             ~doc:"Read a previously saved plan instead of analyzing")
  in
  Cmd.v
    (cmd_info "plan" ~doc:"Print a benchmark's reconfiguration plan")
    Term.(const run $ w $ context $ delta $ save $ load $ cache_dir_arg)

(* --- compare ---------------------------------------------------------- *)

let compare_cmd =
  let run w cache_dir =
    init_cache cache_dir;
    let baseline = Runner.baseline w in
    let row name m =
      let c = Runner.compare_runs ~baseline m in
      [
        name;
        Table.fmt_pct c.Runner.degradation_pct;
        Table.fmt_pct c.Runner.savings_pct;
        Table.fmt_pct c.Runner.ed_improvement_pct;
        string_of_int m.Metrics.reconfigurations;
      ]
    in
    let offline = Runner.offline_run w in
    let online = Runner.online_run w in
    let profile =
      (Runner.profile_run w ~context:Context.lf ~train:`Train).Runner.run
    in
    let global, mhz =
      Runner.global_dvs_run w ~target_runtime_ps:offline.Metrics.runtime_ps
    in
    print_string
      (Table.render
         ~header:[ "policy"; "slowdown"; "energy saved"; "ExD"; "reconfigs" ]
         ~rows:
           [
             row "off-line (oracle)" offline;
             row "on-line (attack/decay)" online;
             row "profile L+F" profile;
             row (Printf.sprintf "global DVS @%d MHz" mhz) global;
           ]
         ());
    0
  in
  let w = Arg.(required & pos 0 (some workload_arg) None & info [] ~docv:"BENCHMARK") in
  Cmd.v
    (cmd_info "compare" ~doc:"Compare all policies on one benchmark")
    Term.(const run $ w $ cache_dir_arg)

(* --- tournament -------------------------------------------------------- *)

let tournament_cmd =
  let run quick jobs json_out cache_dir workloads =
    init_cache cache_dir;
    Runner.set_jobs jobs;
    let workloads =
      match workloads with
      | [] -> if quick then Tournament.quick_workloads () else Suite.all
      | ws -> ws
    in
    let t = Tournament.run ~workloads () in
    print_string (Tournament.render t);
    match json_out with
    | None -> 0
    | Some path -> (
        try
          let oc = open_out path in
          output_string oc (Json.to_string (Tournament.to_json t));
          output_char oc '\n';
          close_out oc;
          0
        with Sys_error m ->
          prerr_endline ("mcd-dvfs: " ^ m);
          3)
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Race on the bench harness's five-benchmark subset instead of \
             the full suite.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Fan the per-workload sweep out over $(docv) OCaml domains \
             (default 1 = sequential; 0 = all cores). The ranking is \
             byte-identical at any jobs count.")
  in
  let jobs_resolved =
    Term.(
      const (fun j -> if j <= 0 then Mcd_util.Par.recommended_jobs () else j)
      $ jobs)
  in
  let json_out =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the machine-readable report to $(docv).")
  in
  let workloads =
    Arg.(
      value & pos_all workload_arg []
      & info [] ~docv:"BENCHMARK"
          ~doc:"Benchmarks to race on (default: the full suite).")
  in
  Cmd.v
    (cmd_info "tournament"
       ~doc:
         "Race every registered policy across the benchmark suite and \
          rank them by mean energy x delay improvement")
    Term.(
      const run $ quick $ jobs_resolved $ json_out $ cache_dir_arg $ workloads)

(* --- campaign ----------------------------------------------------------- *)

let campaign_cmd =
  let dp = Campaign.default_params in
  let run count seed slowdown epsilon margin minimize no_observe train_insts
      ref_insts jobs json_out replay cache_dir =
    init_cache cache_dir;
    Runner.set_jobs jobs;
    let params =
      {
        Campaign.count;
        seed;
        slowdown_pct = slowdown;
        epsilon_pct = epsilon;
        margin_pct = margin;
        minimize;
        observe = not no_observe;
        train_insts;
        ref_insts;
      }
    in
    match replay with
    | Some path -> (
        match load_spec path with
        | Error (code, msg) ->
            prerr_endline msg;
            code
        | Ok spec -> (
            Printf.printf "replaying %s (%s)\n" (Gspec.name spec)
              (Gspec.summary spec);
            match Campaign.replay ~params spec with
            | [] ->
                print_endline "no violation reproduced";
                1
            | kinds ->
                List.iter
                  (fun k ->
                    Printf.printf "  %s\n" (Campaign.describe_kind k))
                  kinds;
                0))
    | None -> (
        let r = Campaign.run ~params () in
        print_string (Campaign.render r);
        match json_out with
        | None -> 0
        | Some path -> (
            try
              let oc = open_out path in
              output_string oc (Json.to_string (Campaign.to_json r));
              output_char oc '\n';
              close_out oc;
              0
            with Sys_error m ->
              prerr_endline ("mcd-dvfs: " ^ m);
              3))
  in
  let count =
    Arg.(
      value & opt int dp.Campaign.count
      & info [ "count" ] ~docv:"N"
          ~doc:"Number of seeded workload specs to generate and evaluate.")
  in
  let seed =
    Arg.(
      value & opt int dp.Campaign.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Campaign master seed: the spec distribution (and shrinking) \
             is a pure function of it.")
  in
  let slowdown =
    Arg.(
      value & opt float dp.Campaign.slowdown_pct
      & info [ "slowdown" ] ~docv:"PCT"
          ~doc:"Profile-driven slowdown target the race runs at.")
  in
  let epsilon =
    Arg.(
      value & opt float dp.Campaign.epsilon_pct
      & info [ "epsilon" ] ~docv:"PP"
          ~doc:
            "Slack (percentage points) on the degradation-bound \
             assertion before it fires.")
  in
  let margin =
    Arg.(
      value & opt float dp.Campaign.margin_pct
      & info [ "margin" ] ~docv:"PP"
          ~doc:
            "ED-improvement margin a rival policy must win by before the \
             spec counts as a profile-loses find.")
  in
  let minimize =
    Arg.(
      value & opt int dp.Campaign.minimize
      & info [ "minimize" ] ~docv:"N"
          ~doc:"Max distinct find classes to shrink to minimal specs.")
  in
  let no_observe =
    Arg.(
      value & flag
      & info [ "no-observe" ]
          ~doc:
            "Skip the sink-observed runs (plan-floor and decision-grid \
             assertions); roughly halves per-spec cost.")
  in
  let train_insts =
    Arg.(
      value & opt int dp.Campaign.train_insts
      & info [ "train-insts" ] ~docv:"N"
          ~doc:"Training-input instruction window of generated specs.")
  in
  let ref_insts =
    Arg.(
      value & opt int dp.Campaign.ref_insts
      & info [ "ref-insts" ] ~docv:"N"
          ~doc:"Reference-input instruction window of generated specs.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Fan the sweep out over $(docv) OCaml domains (default 1 = \
             sequential; 0 = all cores). Results are byte-identical at \
             any jobs count.")
  in
  let jobs_resolved =
    Term.(
      const (fun j -> if j <= 0 then Mcd_util.Par.recommended_jobs () else j)
      $ jobs)
  in
  let json_out =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the machine-readable mcd-dvfs-campaign/1 report (every \
             find with its replayable spec) to $(docv).")
  in
  let replay =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay one stored counterexample spec instead of sweeping: \
             exits 0 when the violation reproduces, 1 when it does not.")
  in
  Cmd.v
    (cmd_info "campaign"
       ~doc:
         "Property campaign over generated workloads: sweep seeded specs, \
          check DVS invariants, race profile-driven control against \
          attack/decay, and shrink every find to a minimal replayable spec")
    Term.(
      const run $ count $ seed $ slowdown $ epsilon $ margin $ minimize
      $ no_observe $ train_insts $ ref_insts $ jobs_resolved $ json_out
      $ replay $ cache_dir_arg)

(* --- trace ------------------------------------------------------------- *)

let trace_cmd =
  let run w policy context out stride =
    let sink =
      Mcd_obs.Sink.create ~stride_cycles:stride
        ~domains:Mcd_domains.Domain.count ()
    in
    let p = Option.get (Runner.policy_of_name ~context policy w) in
    let metrics = Runner.policy_run ~sink p w in
    let domain_names =
      Array.of_list (List.map Mcd_domains.Domain.name Mcd_domains.Domain.all)
    in
    let files = Mcd_obs.Export.write_dir ~domain_names ~dir:out sink in
    Format.printf "%a@." Metrics.pp metrics;
    Printf.printf "%d samples, %d events retained (%d dropped)\n"
      (Mcd_obs.Series.length (Mcd_obs.Sink.series sink))
      (List.length (Mcd_obs.Sink.events sink))
      (Mcd_obs.Sink.dropped_events sink);
    List.iter (fun f -> Printf.printf "wrote %s\n" f) files;
    0
  in
  let w = Arg.(required & pos 0 (some workload_arg) None & info [] ~docv:"BENCHMARK") in
  let policy =
    Arg.(value & opt (policy_arg Runner.policy_names) "profile"
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"A policy-zoo registry label, offline or profile")
  in
  let context =
    Arg.(value & opt context_arg Context.lf
         & info [ "context" ] ~docv:"CTX" ~doc:"Calling-context definition")
  in
  let out =
    Arg.(value & opt string "trace-out"
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Output directory (created if missing)")
  in
  let stride =
    Arg.(value & opt int 2048
         & info [ "stride" ] ~docv:"CYCLES"
             ~doc:"Front-end cycles between time-series samples")
  in
  Cmd.v
    (cmd_info "trace"
       ~doc:
         "Simulate one benchmark with the observability sink attached and \
          export metrics.jsonl, series.csv and a Chrome trace (trace.json, \
          one track per clock domain)")
    Term.(const run $ w $ policy $ context $ out $ stride)

(* --- cache ------------------------------------------------------------- *)

let cache_cmd =
  (* stats/gc address a directory, not a run: the flag wins, then the
     environment; with neither there is nothing to inspect. *)
  let resolve_dir = function
    | Some dir -> Ok dir
    | None -> (
        match Sys.getenv_opt "MCD_DVFS_CACHE" with
        | Some dir when dir <> "" -> Ok dir
        | _ ->
            prerr_endline
              "mcd-dvfs cache: no cache directory (give --cache-dir or set \
               MCD_DVFS_CACHE)";
            Error 3)
  in
  let human_bytes b =
    if b >= 1_048_576 then Printf.sprintf "%.1f MiB" (float_of_int b /. 1_048_576.0)
    else if b >= 1_024 then Printf.sprintf "%.1f KiB" (float_of_int b /. 1_024.0)
    else Printf.sprintf "%d B" b
  in
  let stats dir =
    match resolve_dir dir with
    | Error code -> code
    | Ok dir ->
        let store = Mcd_cache.Store.create ~dir in
        let objects, bytes = Mcd_cache.Store.disk_usage store in
        print_string
          (Table.render
             ~header:[ "cache"; "value" ]
             ~rows:
               [
                 [ "directory"; dir ];
                 [ "objects"; string_of_int objects ];
                 [ "bytes"; Printf.sprintf "%d (%s)" bytes (human_bytes bytes) ];
               ]
             ());
        0
  in
  let gc dir max_bytes =
    match resolve_dir dir with
    | Error code -> code
    | Ok dir ->
        let store = Mcd_cache.Store.create ~dir in
        let removed, freed = Mcd_cache.Store.gc ~max_bytes store in
        Printf.printf "removed %d objects, freed %s\n" removed
          (human_bytes freed);
        0
  in
  let max_bytes =
    Arg.(
      value & opt int 0
      & info [ "max-bytes" ] ~docv:"N"
          ~doc:
            "Byte budget to shrink the cache to, oldest objects first \
             (default 0: remove everything)")
  in
  let stats_cmd =
    Cmd.v
      (cmd_info "stats" ~doc:"Show object count and on-disk size")
      Term.(const stats $ cache_dir_arg)
  in
  let gc_cmd =
    Cmd.v
      (cmd_info "gc"
         ~doc:"Delete oldest cache objects until under a byte budget")
      Term.(const gc $ cache_dir_arg $ max_bytes)
  in
  Cmd.group
    (cmd_info "cache" ~doc:"Inspect or prune the persistent result cache")
    [ stats_cmd; gc_cmd ]

(* --- robustness -------------------------------------------------------- *)

let fault_arg =
  let parse s =
    match Inject.of_name s with
    | Some f -> Ok f
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown fault %S (one of: %s)" s
               (String.concat ", " Inject.names)))
  in
  let print fmt f = Format.pp_print_string fmt (Inject.name f) in
  Arg.conv (parse, print)

let robustness_cmd =
  let run seed faults workloads =
    let faults = if faults = [] then Inject.all else faults in
    let workloads = if workloads = [] then Suite.all else workloads in
    let report = Robustness.run ~workloads ~faults ~seed () in
    print_string (Robustness.render report);
    if Robustness.clean report then 0 else 1
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"Master seed for all stochastic fault choices")
  in
  let faults =
    Arg.(value & opt_all fault_arg []
         & info [ "fault" ] ~docv:"FAULT"
             ~doc:
               ("Restrict to a fault class (repeatable). One of: "
               ^ String.concat ", " Inject.names))
  in
  let workloads =
    Arg.(value & pos_all workload_arg [] & info [] ~docv:"BENCHMARK")
  in
  Cmd.v
    (cmd_info "robustness"
       ~doc:
         "Run the fault-injection campaign: every fault class over the \
          benchmark suite, asserting zero crashes and bounded slowdown")
    Term.(const run $ seed $ faults $ workloads)

(* --- serve family ------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/mcd-dvfs.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "MCD_DVFS_SOCKET")
        ~doc:"Unix-domain socket the experiment daemon listens on.")

let fail_error e =
  Format.eprintf "mcd-dvfs: %s@." (Error.to_string e);
  Error.exit_code e

let serve_cmd =
  let run socket workers queue_max client_max conn_inflight_max
      outbuf_max_bytes trace_dir no_journal journal_path deadline_ms
      retry_after_cap_ms cache_dir =
    init_cache cache_dir;
    let base = Server.default_config ~socket in
    let journal =
      if no_journal then None
      else match journal_path with Some p -> Some p | None -> base.journal
    in
    let cfg =
      {
        base with
        workers;
        queue_max;
        client_max;
        conn_inflight_max;
        outbuf_max_bytes;
        trace_dir;
        journal;
        deadline_s =
          (if deadline_ms > 0 then Some (float_of_int deadline_ms /. 1000.0)
           else None);
        retry_after_cap_ms;
      }
    in
    Printf.printf "mcd-dvfs serve: listening on %s (%d workers, queue %d%s)\n%!"
      socket workers queue_max
      (match cfg.journal with
      | Some path -> ", journal " ^ path
      | None -> ", no journal");
    match Server.run cfg with
    | Ok () ->
        Printf.printf "mcd-dvfs serve: drained, bye\n%!";
        0
    | Error e -> fail_error e
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Worker domains")
  in
  let queue_max =
    Arg.(value & opt int 64
         & info [ "queue-max" ] ~docv:"N"
             ~doc:"Queued jobs admitted before submits are rejected \
                   $(b,overloaded)")
  in
  let client_max =
    Arg.(value & opt int 16
         & info [ "client-max" ] ~docv:"N"
             ~doc:"Queued jobs one client may hold (fairness bound)")
  in
  let conn_inflight_max =
    Arg.(value & opt int 128
         & info [ "conn-inflight-max" ] ~docv:"N"
             ~doc:"Parked waits one pipelined connection may hold before \
                   further waits are rejected $(b,overloaded) (admission \
                   cap for the readiness-driven event loop)")
  in
  let outbuf_max_bytes =
    Arg.(value & opt int (16 * 1024 * 1024)
         & info [ "outbuf-max-bytes" ] ~docv:"BYTES"
             ~doc:"Pending response bytes buffered for one connection \
                   before the server closes it as a slow reader")
  in
  let trace_dir =
    Arg.(value & opt (some string) None
         & info [ "trace-dir" ] ~docv:"DIR"
             ~doc:"Export the server's observability sink there on exit")
  in
  let no_journal =
    Arg.(value & flag
         & info [ "no-journal" ]
             ~doc:"Disable the write-ahead job journal: acknowledged jobs \
                   are lost across a crash instead of replayed on restart")
  in
  let journal_path =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
             ~doc:"Job journal path (default: $(b,serve.journal) in the \
                   cache directory; no journal when no cache is configured)")
  in
  let deadline_ms =
    Arg.(value & opt int 0
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-job compute deadline: a job running past it fails \
                   typed ($(b,deadline)) and its worker is replaced; 0 \
                   disables the watchdog")
  in
  let retry_after_cap_ms =
    Arg.(value & opt int 10_000
         & info [ "retry-after-cap-ms" ] ~docv:"MS"
             ~doc:"Ceiling on the $(b,overloaded) retry-after hint derived \
                   from observed job latency")
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:
         "Run the experiment daemon: a Unix-socket service with a priority \
          job queue, request coalescing by cache digest, backpressure, and \
          a write-ahead job journal that replays acknowledged jobs across \
          a crash. Drains gracefully on SIGTERM or $(b,mcd-dvfs drain)")
    Term.(
      const run $ socket_arg $ workers $ queue_max $ client_max
      $ conn_inflight_max $ outbuf_max_bytes $ trace_dir $ no_journal
      $ journal_path $ deadline_ms $ retry_after_cap_ms $ cache_dir_arg)

let wire_policy_enum =
  Arg.enum
    [
      ("baseline", Sproto.Baseline);
      ("offline", Sproto.Offline);
      ("online", Sproto.Online);
      ("profile", Sproto.Profile);
    ]

let priority_enum =
  Arg.enum
    [ ("high", Sproto.High); ("normal", Sproto.Normal); ("low", Sproto.Low) ]

let with_client socket f =
  match Client.connect ~socket with
  | Error e -> fail_error e
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let submit_cmd =
  let run w policy context slowdown priority raw socket =
    with_client socket @@ fun c ->
    let request =
      Sproto.request ~policy ~context:context.Context.name
        ~slowdown_pct:slowdown w.Workload.name
    in
    match Client.run ~priority c request with
    | Error e -> fail_error e
    | Ok payload -> (
        if raw then begin
          print_string payload;
          0
        end
        else
          match Metrics.decode payload with
          | Ok m ->
              Format.printf "%a@." Metrics.pp m;
              0
          | Error reason ->
              Format.eprintf "mcd-dvfs: undecodable payload: %s@." reason;
              3)
  in
  let w = Arg.(required & pos 0 (some workload_arg) None & info [] ~docv:"BENCHMARK") in
  let policy =
    Arg.(value & opt wire_policy_enum Sproto.Profile
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"baseline | offline | online | profile")
  in
  let context =
    Arg.(value & opt context_arg Context.lf
         & info [ "context" ] ~docv:"CTX" ~doc:"Calling-context definition")
  in
  let slowdown =
    Arg.(value & opt float Runner.default_slowdown_pct
         & info [ "slowdown" ] ~docv:"PCT" ~doc:"Tolerated slowdown")
  in
  let priority =
    Arg.(value & opt priority_enum Sproto.Normal
         & info [ "priority" ] ~docv:"PRI" ~doc:"high | normal | low")
  in
  let raw =
    Arg.(value & flag
         & info [ "raw" ]
             ~doc:"Print the raw cached payload bytes instead of the \
                   decoded summary")
  in
  Cmd.v
    (cmd_info "submit"
       ~doc:
         "Submit a benchmark run to the daemon, wait, and print the result. \
          Identical concurrent requests coalesce server-side; results are \
          byte-identical to a one-shot $(b,mcd-dvfs run)")
    Term.(
      const run $ w $ policy $ context $ slowdown $ priority $ raw
      $ socket_arg)

let status_cmd =
  let run id socket =
    with_client socket @@ fun c ->
    match id with
    | Some id -> (
        match Client.status c id with
        | Error e -> fail_error e
        | Ok state ->
            (match state with
            | Sproto.Failed message ->
                Printf.printf "job %d: failed: %s\n" id message
            | state ->
                Printf.printf "job %d: %s\n" id (Sproto.state_name state));
            0)
    | None -> (
        match Client.stats c with
        | Error e -> fail_error e
        | Ok body ->
            print_string body;
            0)
  in
  let id =
    Arg.(value & pos 0 (some int) None & info [] ~docv:"JOB"
         ~doc:"Job id from $(b,submit); omit for server-wide stats")
  in
  Cmd.v
    (cmd_info "status"
       ~doc:
         "Query the daemon: a job's state, or (with no job id) the \
          server's metrics registry as JSON lines")
    Term.(const run $ id $ socket_arg)

let drain_cmd =
  let run socket =
    with_client socket @@ fun c ->
    match Client.drain c with
    | Error e -> fail_error e
    | Ok () ->
        Printf.printf "draining: admission closed, in-flight jobs completing\n";
        0
  in
  Cmd.v
    (cmd_info "drain"
       ~doc:
         "Ask the daemon to stop admitting work, finish in-flight jobs, \
          and exit")
    Term.(const run $ socket_arg)

let () =
  let info =
    cmd_info "mcd-dvfs"
      ~doc:"Profile-based DVFS for a multiple clock domain microprocessor"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            suite_cmd;
            run_cmd;
            tree_cmd;
            plan_cmd;
            compare_cmd;
            tournament_cmd;
            campaign_cmd;
            trace_cmd;
            cache_cmd;
            robustness_cmd;
            serve_cmd;
            submit_cmd;
            status_cmd;
            drain_cmd;
          ]))
