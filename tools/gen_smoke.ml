(* Generative-workload smoke test for the @verify alias.

   Two layers. The library layer exercises the contracts the workload
   fabric rests on, directly against one seeded spec: canonical program
   bytes and cache-key digests are identical across regenerations and
   under Par.map --jobs 4 (content addressing and serve-side dedup both
   assume it), an exact and a phase-sampled profile run of the same
   generated workload stay within drift bounds, and the sink-observed
   assertions (plan-floor, decision-grid) hold on a real run. The CLI
   layer then runs a bounded 100-spec campaign through the real binary
   — sequential, observation off, small windows, a warm cache — checks
   the mcd-dvfs-campaign/1 report parses with a replayable spec inside
   every find, and replays one minimized counterexample expecting the
   violation to reproduce (exit 0).

   The CLI executable path arrives as argv(1) from the dune rule, so
   the test always runs the binary built from this tree, and the warm
   cache directory as argv(2): dune gives each action a TMPDIR of its
   own that it deletes after the build, so the rule names the directory.

   Exits 0 on success, 1 with a message on the first violation. *)

module Spec = Mcd_gen.Spec
module Gassert = Mcd_gen.Assert
module P = Mcd_isa.Program
module W = Mcd_workloads.Workload
module Suite = Mcd_workloads.Suite
module Key = Mcd_cache.Key
module Par = Mcd_util.Par
module Metrics = Mcd_power.Metrics
module Domain = Mcd_domains.Domain
module Sink = Mcd_obs.Sink
module Json = Mcd_obs.Json
module Context = Mcd_profiling.Context
module Runner = Mcd_experiments.Runner
module Policies = Mcd_control.Policies
open Harness

let no_violations label vs =
  List.iter
    (fun (v : Gassert.violation) ->
      check false "%s: %s: %s" label v.Gassert.check v.Gassert.detail)
    vs

let () =
  let cli, cache_dir =
    match Sys.argv with
    | [| _; cli; cache_dir |] -> (cli, cache_dir)
    | _ -> failwith "usage: gen_smoke MCD_DVFS_CLI CACHE_DIR"
  in
  let spec = { Spec.default with Spec.seed = 42 } in

  (* --- digest stability: regeneration and parallel generation --------- *)
  let canonical_of s =
    let w = Spec.workload s in
    P.canonical w.W.program ~input:w.W.reference
  in
  let c1 = canonical_of spec in
  check (String.equal c1 (canonical_of spec)) "regenerated canonical bytes differ";
  let seq_digest = Digest.to_hex (Digest.string c1) in
  let key_of s =
    let w = Spec.workload s in
    Key.digest
      (Key.make ~kind:"golden"
         ~parts:
           (Key.program_fragment w.W.program ~input:w.W.reference
           @ Key.input_fragment w.W.reference))
  in
  let k0 = key_of spec in
  Par.map ~jobs:4
    (fun s -> (Digest.to_hex (Digest.string (canonical_of s)), key_of s))
    [ spec; spec; spec; spec ]
  |> List.iteri (fun i (d, k) ->
         check (String.equal d seq_digest)
           "par worker %d canonical digest %s, sequential %s" i d seq_digest;
         check (String.equal k k0) "par worker %d cache key %s, sequential %s"
           i k k0);

  (* --- dedup identity: one spec, two evaluations, same bytes ---------- *)
  let w = Spec.workload spec in
  Suite.register w;
  let b1 = Runner.baseline w in
  Runner.clear_caches ();
  let b2 = Runner.baseline (Spec.workload spec) in
  check
    (String.equal (Metrics.encode b1) (Metrics.encode b2))
    "baseline runs of a regenerated spec are not byte-identical";
  (match Policies.adversaries () with
  | policy :: _ ->
      check
        (String.equal
           (Key.digest (Runner.policy_key policy w))
           (Key.digest (Runner.policy_key policy (Spec.workload spec))))
        "policy cache keys diverge across regenerations of one spec"
  | [] -> check false "no adversary policies registered");

  (* --- exact vs sampled drift on the generated workload --------------- *)
  let exact =
    (Runner.profile_run w ~context:Context.lf ~train:`Train).Runner.run
  in
  no_violations "profile-exact" (Gassert.run_sane ~label:"profile-exact" exact);
  Runner.set_sim_mode (Runner.Sampled Mcd_cpu.Sampler.default_params);
  let sampled =
    (Runner.profile_run w ~context:Context.lf ~train:`Train).Runner.run
  in
  Runner.set_sim_mode Runner.Exact;
  no_violations "profile-sampled"
    (Gassert.run_sane ~label:"profile-sampled" sampled);
  no_violations "drift"
    (Gassert.drift_bounded ~label:"profile" ~bound_pp:3.0 ~baseline:b1 ~exact
       ~sampled);

  (* --- observed-run assertions: plan floor and decision grid ---------- *)
  let sink = Sink.create ~domains:Domain.count () in
  let orun =
    Runner.policy_run ~sink (Runner.profile_policy ~context:Context.lf w) w
  in
  no_violations "profile-observed"
    (Gassert.run_sane ~label:"profile-observed" orun);
  let plan = Runner.plan_for w ~context:Context.lf ~train:`Train in
  let floor = Gassert.plan_floor_mhz plan in
  no_violations "floor"
    (Gassert.floor_respected ~label:"profile-observed" ~floor_mhz:floor
       ~ipc_threshold:(0.5 *. Metrics.ipc b1) sink);
  let sink2 = Sink.create ~domains:Domain.count () in
  let _ = Runner.policy_run ~sink:sink2 (Policies.online ()) w in
  no_violations "decision-grid"
    (Gassert.decisions_on_grid ~label:"online-observed" sink2);

  (* --- the bounded campaign through the real CLI ---------------------- *)
  let out = Filename.temp_file "mcd-gen" ".out" in
  let json_path = Filename.temp_file "mcd-gen" ".json" in
  let common_flags =
    "--jobs 0 --no-observe --train-insts 6000 --ref-insts 12000 --cache-dir "
    ^ Filename.quote cache_dir
  in
  let cmd =
    Printf.sprintf "%s campaign --count 100 --seed 7 --minimize 2 %s --json %s > %s"
      (Filename.quote cli) common_flags (Filename.quote json_path)
      (Filename.quote out)
  in
  let rc = Sys.command cmd in
  check (rc = 0) "exit code %d from %s" rc cmd;
  let findings =
    match Json.of_string (read_file json_path) with
    | Error e ->
        check false "campaign JSON does not parse: %s" e;
        []
    | Ok j ->
        check
          (Option.bind (Json.member "schema" j) Json.to_string_opt
          = Some "mcd-dvfs-campaign/1")
          "bad or missing campaign schema";
        check
          (Option.bind (Json.member "total" j) Json.to_int_opt = Some 100)
          "campaign did not evaluate 100 specs";
        let hits =
          Option.bind (Json.member "hits" j) Json.to_list_opt
          |> Option.value ~default:[]
        in
        let findings =
          Option.bind (Json.member "findings" j) Json.to_list_opt
          |> Option.value ~default:[]
        in
        (* every find must carry a replayable spec *)
        List.iter
          (fun h ->
            check
              (match Json.member "spec" h with
              | Some s ->
                  Option.bind (Json.member "schema" s) Json.to_string_opt
                  = Some "mcd-gen-spec/1"
              | None -> false)
              "hit without a replayable mcd-gen-spec/1 spec")
          hits;
        List.iter
          (fun f ->
            check
              (Json.member "minimized" f <> None
              && Json.member "kind" f <> None)
              "finding without minimized spec or kind")
          findings;
        check
          (findings = [] = (hits = []))
          "hits and findings disagree about whether anything was found";
        findings
  in
  (* replay the report's first minimized counterexample: the violation
     must reproduce (exit 0) *)
  if findings <> [] then begin
    let cmd =
      Printf.sprintf "%s campaign --replay %s %s > %s" (Filename.quote cli)
        (Filename.quote json_path) common_flags (Filename.quote out)
    in
    let rc = Sys.command cmd in
    check (rc = 0) "stored counterexample did not reproduce (exit %d)" rc
  end;
  Sys.remove out;
  Sys.remove json_path;
  finish ()
