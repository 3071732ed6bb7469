(* Chaos harness for the crash-safe experiment daemon, run by @verify.

   Every phase drives real forked server processes on Unix sockets under
   a fresh temp cache, with every stochastic choice (kill timing, journal
   tearing, backoff jitter) drawn from one fixed-seed Rng stream, so a
   failing run reproduces.

   Phases:

   1. racing starts: two servers race for the same socket past a stale
      socket file; the start lock must let exactly one win, and the
      loser must exit with a typed Server_unavailable, never steal or
      corrupt the winner's socket;

   2. kill9-restart-replay loop (the core): >= 20 cycles of submit →
      SIGKILL at a seeded random moment → restart on the same journal
      (torn by Inject.tear_file every third cycle) → verify. The
      invariant checked every cycle: every acknowledged job is
      eventually served with bytes identical to a one-shot Runner run —
      via journal replay when the job was still incomplete, via
      resubmit-through-the-store when it had completed and been
      compacted away (typed Unknown_job, retried by the client layer);

   3. worker crash: Inject.crash_compute kills the whole server process
      mid-compute; the acked job must be replayed and served by the
      restarted server;

   4. deadline: a compute that outruns the per-job deadline must fail
      that job with a typed Deadline_exceeded — and only that job: a
      fast job submitted right after must still complete (the watchdog
      spawned a replacement worker; the zombie retires silently);

   5. drain deadline with parked waiters: a drain whose deadline expires
      while a client is parked on a wait must answer Draining (never
      hang, never close silently); the acked-but-unfetched job must
      still be served by a restarted server (replay or
      resubmit-after-compaction, whichever the exit left behind);

   6. SIGTERM during journal replay: a server restarted onto a crafted
      journal is SIGTERMed while the replayed compute is in flight; the
      drain must complete the job before exiting, and the next restart
      must find the journal compacted clean.

   A global alarm bounds the whole harness, so a wedged select loop or
   a hung client turns into a loud failure instead of a stuck CI job.
   Exits 0 on success, 1 with a message on the first violation. *)

module Server = Mcd_serve.Server
module Client = Mcd_serve.Client
module Protocol = Mcd_serve.Protocol
module Journal = Mcd_serve.Journal
module Store = Mcd_cache.Store
module Error = Mcd_robust.Error
module Inject = Mcd_robust.Inject
module Rng = Mcd_util.Rng
open Harness

let seed = 1789
let cycles = 22

(* --- phase 1: racing starts -------------------------------------------- *)

let phase_racing_starts socket =
  (* Plant a stale socket file so both racers also race the
     probe→unlink→rebind sequence, the exact window the lock closes. *)
  let planted = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind planted (Unix.ADDR_UNIX socket);
  Unix.close planted;
  let cfg = { (Server.default_config ~socket) with drain_grace_s = 0.2 } in
  let a = fork_server cfg and b = fork_server cfg in
  check (wait_for_server socket) "no racing server came up";
  (* Exactly one racer loses, promptly, with exit 1 (the typed
     Server_unavailable path); the other keeps serving. *)
  let rec find_loser waited =
    match Unix.waitpid [ Unix.WNOHANG ] a with
    | 0, _ -> (
        match Unix.waitpid [ Unix.WNOHANG ] b with
        | 0, _ ->
            if waited > 10.0 then None
            else begin
              Unix.sleepf 0.05;
              find_loser (waited +. 0.05)
            end
        | _, status -> Some (a, b, status))
    | _, status -> Some (b, a, status)
  in
  match find_loser 0.0 with
  | None ->
      check false "both racing servers are still running";
      Unix.kill a Sys.sigkill;
      Unix.kill b Sys.sigkill;
      ignore (reap_status a);
      ignore (reap_status b)
  | Some (winner, _loser, loser_status) ->
      (match loser_status with
      | Unix.WEXITED 1 -> ()
      | Unix.WEXITED code -> check false "racing loser exited %d, want 1" code
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
          check false "racing loser died by signal %d" s);
      (* the winner's socket still answers after the loser's exit *)
      (match Client.connect ~socket with
      | Ok c ->
          check (Client.ping c = Ok ()) "winner does not answer ping";
          Client.close c
      | Error e -> check false "winner unreachable: %s" (Error.to_string e));
      drain_and_reap ~what:"racing winner" socket winner

(* --- phase 2: kill9-restart-replay loop -------------------------------- *)

let workload_name = "adpcm decode"
let r0 = Protocol.request ~policy:Protocol.Baseline workload_name
let r1 = Protocol.request ~policy:Protocol.Online workload_name

let retry_policy ~cycle =
  {
    Client.default_policy with
    Client.max_attempts = 12;
    base_delay_ms = 20;
    max_delay_ms = 500;
    seed = Some ((seed * 1000) + cycle);
  }

let phase_kill9_loop socket journal_path ~expected_baseline ~expected_online =
  let rng = Rng.split (Rng.create seed) ~label:"kill9" in
  let cfg =
    {
      (Server.default_config ~socket) with
      workers = 2;
      journal = Some journal_path;
      drain_grace_s = 0.2;
    }
  in
  let expected = [ (r0, expected_baseline); (r1, expected_online) ] in
  let total_replayed = ref 0.0 in
  let server = ref (fork_server cfg) in
  check (wait_for_server socket) "kill9 loop: first server never came up";
  for cycle = 1 to cycles do
    (* submit and collect acks; on every 4th cycle also wait for
       completion first, so the kill lands after compaction-eligible
       records and the Unknown_job/resubmit path is exercised too *)
    let acked = ref [] in
    (match Client.connect ~socket with
    | Error e -> check false "cycle %d connect: %s" cycle (Error.to_string e)
    | Ok c ->
        List.iter
          (fun (req, _) ->
            match Client.submit c req with
            | Ok t -> acked := (req, t.Client.id) :: !acked
            | Error e ->
                check false "cycle %d submit: %s" cycle (Error.to_string e))
          expected;
        if cycle mod 4 = 0 then
          List.iter
            (fun (_, id) ->
              match Client.wait c id with
              | Ok _ -> ()
              | Error e ->
                  check false "cycle %d wait %d: %s" cycle id
                    (Error.to_string e))
            !acked
        else begin
          (* park on a wait and let the kill sever the socket: the
             client must get a typed transport error, not a hang *)
          Unix.sleepf (Rng.float rng 0.08);
          ()
        end;
        Unix.kill !server Sys.sigkill;
        (match !acked with
        | (_, id) :: _ when cycle mod 4 <> 0 -> (
            match Client.wait c id with
            | Ok _ -> () (* finished just before the kill *)
            | Error (Error.Server_unavailable _) -> ()
            | Error e ->
                check false "cycle %d wait across kill: unexpected %s" cycle
                  (Error.to_string e))
        | _ -> ());
        Client.close c);
    (match reap_status !server with
    | Unix.WSIGNALED s ->
        check (s = Sys.sigkill) "cycle %d server died by signal %d" cycle s
    | Unix.WEXITED code ->
        check false "cycle %d server exited %d, want SIGKILL" cycle code
    | Unix.WSTOPPED s -> check false "cycle %d server stopped (%d)" cycle s);
    (* every third cycle, tear the journal tail: a crash mid-append *)
    if cycle mod 3 = 0 && Sys.file_exists journal_path then
      Inject.tear_file ~rng ~path:journal_path;
    (* restart on the same journal + cache *)
    server := fork_server cfg;
    check (wait_for_server socket) "cycle %d restart never came up" cycle;
    total_replayed := !total_replayed +. server_stat socket "serve.replayed";
    (* an acked id is either replayed (status answers) or compacted
       away because it completed (typed Unknown_job) — never anything
       else *)
    (match Client.connect ~socket with
    | Error e ->
        check false "cycle %d status connect: %s" cycle (Error.to_string e)
    | Ok c ->
        List.iter
          (fun (_, id) ->
            match Client.status c id with
            | Ok _ -> ()
            | Error (Error.Unknown_job _) -> ()
            | Error e ->
                check false "cycle %d status %d: unexpected %s" cycle id
                  (Error.to_string e))
          !acked;
        Client.close c);
    (* the invariant: every acknowledged job is eventually served,
       byte-identical to the one-shot Runner run *)
    List.iter
      (fun (req, want) ->
        match
          Client.run_with_retry ~policy:(retry_policy ~cycle) ~socket req
        with
        | Ok payload ->
            check (payload = want)
              "cycle %d: served bytes differ from one-shot run" cycle
        | Error e ->
            check false "cycle %d: acked job never served: %s" cycle
              (Error.to_string e))
      expected
  done;
  check (!total_replayed >= 1.0)
    "no cycle ever replayed a journaled job (replayed=%g)" !total_replayed;
  drain_and_reap ~what:"kill9 loop final server" socket !server

(* --- phase 3: worker crash mid-compute --------------------------------- *)

let phase_worker_crash socket journal_path =
  let victim = Protocol.request ~slowdown_pct:66.0 workload_name in
  let crashing (r : Protocol.request) =
    if r.slowdown_pct = 66.0 then Inject.crash_compute ~after_s:0.05 () r
    else canned_payload r
  in
  let cfg =
    {
      (Server.default_config ~socket) with
      workers = 1;
      journal = Some journal_path;
      drain_grace_s = 0.2;
    }
  in
  let server = fork_server ~digest:canned_digest ~compute:crashing cfg in
  check (wait_for_server socket) "worker-crash server never came up";
  (match Client.connect ~socket with
  | Error e -> check false "worker-crash connect: %s" (Error.to_string e)
  | Ok c ->
      (match Client.submit c victim with
      | Ok _ -> () (* acked before the crash: the ack is write-ahead *)
      | Error e ->
          check false "worker-crash submit: %s" (Error.to_string e));
      Client.close c);
  (match reap_status server with
  | Unix.WEXITED 9 -> ()
  | Unix.WEXITED code ->
      check false "crashed server exited %d, want 9" code
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      check false "crashed server died by signal %d, want exit 9" s);
  (* the restarted server (sane compute) must replay and serve it *)
  let server = fork_server ~digest:canned_digest ~compute:canned_payload cfg in
  check (wait_for_server socket) "post-crash server never came up";
  check
    (server_stat socket "serve.replayed" >= 1.0)
    "post-crash server replayed nothing";
  (match
     Client.run_with_retry ~policy:(retry_policy ~cycle:0) ~socket victim
   with
  | Ok payload ->
      check
        (payload = canned_payload victim)
        "replayed worker-crash payload differs"
  | Error e ->
      check false "worker-crash job never served: %s" (Error.to_string e));
  drain_and_reap ~what:"worker-crash server" socket server

(* --- phase 4: deadline fails the job, never the pool ------------------- *)

let phase_deadline socket =
  let slow = Protocol.request ~slowdown_pct:7.5 workload_name in
  let fast = Protocol.request ~slowdown_pct:1.0 workload_name in
  let compute (r : Protocol.request) =
    if r.slowdown_pct = 7.5 then Unix.sleepf 2.0;
    canned_payload r
  in
  let cfg =
    {
      (Server.default_config ~socket) with
      workers = 1;
      journal = None;
      deadline_s = Some 0.15;
      drain_grace_s = 0.2;
      drain_deadline_s = 10.0;
    }
  in
  let server = fork_server ~digest:canned_digest ~compute cfg in
  check (wait_for_server socket) "deadline server never came up";
  (match Client.connect ~socket with
  | Error e -> check false "deadline connect: %s" (Error.to_string e)
  | Ok c ->
      (match Client.run c slow with
      | Error (Error.Deadline_exceeded { deadline_ms; _ }) ->
          check (deadline_ms = 150) "deadline_ms=%d, want 150" deadline_ms
      | Error e ->
          check false "slow job: want Deadline_exceeded, got %s"
            (Error.to_string e)
      | Ok _ -> check false "slow job returned a payload past its deadline");
      (* the pool survived: a fast job completes while the zombie
         worker is still sleeping *)
      (match Client.run c fast with
      | Ok payload ->
          check (payload = canned_payload fast) "fast payload differs"
      | Error e ->
          check false "fast job after deadline kill: %s" (Error.to_string e));
      (match Client.stats c with
      | Ok body ->
          let v name = Option.value ~default:0.0 (metric_value body name) in
          check
            (v "serve.deadline_exceeded" = 1.0)
            "deadline_exceeded=%g, want 1" (v "serve.deadline_exceeded");
          check (v "serve.completed" = 1.0) "completed=%g, want 1"
            (v "serve.completed")
      | Error e -> check false "deadline stats: %s" (Error.to_string e));
      Client.close c);
  drain_and_reap ~what:"deadline server" socket server

(* --- phase 5: drain deadline answers parked waiters -------------------- *)

let phase_drain_parked socket journal_path =
  let slow = Protocol.request ~slowdown_pct:9.0 workload_name in
  let compute (r : Protocol.request) =
    if r.slowdown_pct = 9.0 then Unix.sleepf 1.5;
    canned_payload r
  in
  let cfg =
    {
      (Server.default_config ~socket) with
      workers = 1;
      journal = Some journal_path;
      drain_grace_s = 0.1;
      drain_deadline_s = 0.4;
    }
  in
  let server = fork_server ~digest:canned_digest ~compute cfg in
  check (wait_for_server socket) "drain-parked server never came up";
  (match Client.connect ~socket with
  | Error e -> check false "drain-parked connect: %s" (Error.to_string e)
  | Ok c -> (
      match Client.submit c slow with
      | Error e -> check false "drain-parked submit: %s" (Error.to_string e)
      | Ok t ->
          (* a second connection triggers the drain while the first is
             parked on a wait the compute cannot satisfy in time *)
          (match Client.connect ~socket with
          | Ok d ->
              (match Client.drain d with
              | Ok () -> ()
              | Error e ->
                  check false "drain command: %s" (Error.to_string e));
              Client.close d
          | Error e ->
              check false "drain connection: %s" (Error.to_string e));
          (match Client.wait c t.Client.id with
          | Error (Error.Draining _) -> ()
          | Error e ->
              check false
                "parked wait across expired drain: want Draining, got %s"
                (Error.to_string e)
          | Ok state ->
              check false "parked wait answered %s before the compute could"
                (Protocol.state_name state));
          Client.close c));
  (* the zombie compute (1.5s) outlives the drain deadline (0.4s); the
     exit path joins it (its late result is journaled done), so the
     server still exits 0 *)
  reap ~what:"drain-parked server" server;
  (* acknowledged-implies-served: whether the job was joined to
     completion on exit (compacted away → Unknown_job → resubmit) or
     left incomplete (replayed), a restart must serve its bytes *)
  let server = fork_server ~digest:canned_digest ~compute cfg in
  check (wait_for_server socket) "post-drain server never came up";
  (match
     Client.run_with_retry ~policy:(retry_policy ~cycle:1) ~socket slow
   with
  | Ok payload ->
      check (payload = canned_payload slow) "post-drain payload differs"
  | Error e ->
      check false "journaled job lost across drain+restart: %s"
        (Error.to_string e));
  drain_and_reap ~what:"post-drain server" socket server

(* --- phase 6: SIGTERM during journal replay ---------------------------- *)

(* A hand-crafted journal guarantees the restart actually has work to
   replay (a graceful predecessor would have joined its workers and
   marked everything done). SIGTERM lands while the replayed compute is
   in flight; the drain must complete it before exiting 0. *)
let phase_sigterm_replay socket journal_path =
  let slow = Protocol.request ~slowdown_pct:9.0 workload_name in
  let compute (r : Protocol.request) =
    if r.slowdown_pct = 9.0 then Unix.sleepf 1.5;
    canned_payload r
  in
  (match Journal.open_journal ~path:journal_path () with
  | Error e -> check false "craft journal: %s" (Error.to_string e)
  | Ok (j, _) ->
      let digest =
        match canned_digest slow with Ok d -> d | Error _ -> assert false
      in
      Journal.admit j
        {
          Journal.id = 7;
          client = "crafted";
          priority = Protocol.Normal;
          digest;
          request = slow;
        };
      Journal.close j);
  let cfg =
    {
      (Server.default_config ~socket) with
      workers = 1;
      journal = Some journal_path;
      drain_grace_s = 0.1;
      drain_deadline_s = 10.0;
    }
  in
  let server = fork_server ~digest:canned_digest ~compute cfg in
  check (wait_for_server socket) "replay server never came up";
  check
    (server_stat socket "serve.replayed" >= 1.0)
    "crafted journal was not replayed";
  Unix.kill server Sys.sigterm;
  reap ~what:"server SIGTERMed during replay" server;
  (* the drain completed the replayed job, so the journal is now
     compacted clean: a fresh server has nothing to replay and a query
     for the crafted id is a typed Unknown_job *)
  let server = fork_server ~digest:canned_digest ~compute cfg in
  check (wait_for_server socket) "post-replay server never came up";
  check
    (server_stat socket "serve.replayed" = 0.0)
    "journal not compacted after drained replay";
  (match Client.connect ~socket with
  | Ok c ->
      (match Client.status c 7 with
      | Error (Error.Unknown_job _) -> ()
      | Ok _ -> check false "drained replay job still known after compaction"
      | Error e ->
          check false "post-replay status: unexpected %s" (Error.to_string e));
      Client.close c
  | Error e -> check false "post-replay connect: %s" (Error.to_string e));
  drain_and_reap ~what:"post-replay server" socket server

(* --- main -------------------------------------------------------------- *)

let () =
  ignore (Unix.alarm 540);
  (with_temp_dir "mcd-chaos-smoke" @@ fun tmp ->
   let socket n = Filename.concat tmp (Printf.sprintf "s%d.sock" n) in
   let expected_baseline = one_shot "baseline" workload_name in
   let expected_online = one_shot "online" workload_name in
   (* Servers (forked below) inherit this default store. *)
   Store.set_default (Some (Store.create ~dir:(Filename.concat tmp "cache")));
   phase_racing_starts (socket 1);
   phase_kill9_loop (socket 2)
     (Filename.concat tmp "kill9.journal")
     ~expected_baseline ~expected_online;
   phase_worker_crash (socket 3) (Filename.concat tmp "crash.journal");
   phase_deadline (socket 4);
   phase_drain_parked (socket 5) (Filename.concat tmp "drain.journal");
   phase_sigterm_replay (socket 6) (Filename.concat tmp "replay.journal"));
  finish ()
