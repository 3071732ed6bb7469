(* End-to-end smoke test of the experiment daemon for the @verify alias.

   Six phases, all against real forked server processes on Unix
   sockets under a fresh temp cache, driven through tools/harness.ml:

   1. concurrency + coalescing: 8 forked clients hammer one server
      with rotated mixes of duplicate and distinct requests; every
      payload must be byte-identical to the one-shot Runner result
      computed up front with caching off, equivalent requests must
      share a digest (normalization), and the server's counters must
      show every duplicate coalesced onto the 2 distinct computations;

   2. overload: a one-worker server with a tiny queue and a slow canned
      compute is burst-fed distinct requests; the over-bound ones must
      come back as typed Overloaded rejections (with a retry-after
      hint), and every accepted job must still complete — shed, never
      dropped;

   3. kill mid-run: a server with an artificial compute delay gets
      SIGTERM while a job is in flight; the drain must finish the job,
      answer the parked wait, and serve the payload before exiting 0;

   4. warm restart: a fresh server on the same cache must serve the
      same bytes again, with the mirrored store.hits gauge showing the
      payload came from disk, not recomputation;

   5. idle wakeup: a completion must wake an otherwise-idle server's
      parked wait through the self-pipe in under 10ms (best of 3) —
      the regression guard for the deadline-driven poll timeout;

   6. per-connection caps: past --conn-inflight-max a parked wait is
      refused Overloaded with a retry hint, and a reply larger than
      --outbuf-max-bytes closes only its own connection.

   Exits 0 on success, 1 with a message on the first violation. *)

module Server = Mcd_serve.Server
module Client = Mcd_serve.Client
module Pipeline = Mcd_serve.Client.Pipeline
module Protocol = Mcd_serve.Protocol
module Evloop = Mcd_serve.Evloop
module Store = Mcd_cache.Store
module Error = Mcd_robust.Error
module Time = Mcd_util.Time
open Harness

(* --- the request mix --------------------------------------------------- *)

let workload_name = "adpcm decode"

(* r0/r1 are the two distinct computations; r0' and r1' are equivalent
   spellings — baseline ignores context and slowdown, online ignores
   both too — that must normalize onto the same digests. *)
let r0 = Protocol.request ~policy:Protocol.Baseline workload_name
let r0' =
  Protocol.request ~policy:Protocol.Baseline ~context:"F" ~slowdown_pct:3.0
    workload_name
let r1 = Protocol.request ~policy:Protocol.Online workload_name
let r1' =
  Protocol.request ~policy:Protocol.Online ~slowdown_pct:12.0 workload_name

let rotate n l =
  let len = List.length l in
  let n = n mod len in
  let rec go i acc = function
    | [] -> List.rev acc
    | x :: rest -> if i < n then go (i + 1) (x :: acc) rest else (x :: rest) @ List.rev acc
  in
  go 0 [] l

(* --- phase 1: concurrency, coalescing, byte-identity ------------------- *)

let client_process socket ~expected_baseline ~expected_online i =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "serve_smoke client %d: FAIL %s\n%!" i msg;
        exit 1)
      fmt
  in
  let expected_of req =
    if req == r0 || req == r0' then expected_baseline else expected_online
  in
  match Client.connect ~socket with
  | Error e -> fail "connect: %s" (Error.to_string e)
  | Ok c ->
      let requests = rotate i [ r0; r1; r0'; r1' ] in
      let tickets =
        List.map
          (fun req ->
            match Client.submit c req with
            | Ok t -> (req, t)
            | Error e -> fail "submit: %s" (Error.to_string e))
          requests
      in
      (* equivalent spellings must coalesce onto the same job *)
      let digest_of req =
        match List.assq_opt req tickets with
        | Some t -> t.Client.digest
        | None -> fail "missing ticket"
      in
      if digest_of r0 <> digest_of r0' then
        fail "baseline digests differ: %s vs %s" (digest_of r0) (digest_of r0');
      if digest_of r1 <> digest_of r1' then
        fail "online digests differ: %s vs %s" (digest_of r1) (digest_of r1');
      List.iter
        (fun (req, (t : Client.ticket)) ->
          (match Client.wait c t.Client.id with
          | Ok Protocol.Done -> ()
          | Ok state -> fail "job %d ended %s" t.Client.id (Protocol.state_name state)
          | Error e -> fail "wait %d: %s" t.Client.id (Error.to_string e));
          match Client.result c t.Client.id with
          | Error e -> fail "result %d: %s" t.Client.id (Error.to_string e)
          | Ok payload ->
              if payload <> expected_of req then
                fail "job %d payload differs from one-shot Runner result"
                  t.Client.id)
        tickets;
      Client.close c;
      exit 0

let phase_concurrency socket cache_dir ~expected_baseline ~expected_online =
  let cfg =
    { (Server.default_config ~socket) with workers = 2; drain_grace_s = 0.2 }
  in
  let server = fork_server cfg in
  check (wait_for_server socket) "phase 1 server never came up";
  flush stdout;
  flush stderr;
  let clients =
    List.init 8 (fun i ->
        match Unix.fork () with
        | 0 -> client_process socket ~expected_baseline ~expected_online i
        | pid -> pid)
  in
  List.iteri (fun i pid -> reap ~what:(Printf.sprintf "client %d" i) pid) clients;
  (match Client.connect ~socket with
  | Error e -> check false "stats connect: %s" (Error.to_string e)
  | Ok c ->
      (match Client.stats c with
      | Error e -> check false "stats: %s" (Error.to_string e)
      | Ok body ->
          let v name =
            match metric_value body name with
            | Some v -> int_of_float v
            | None ->
                check false "stats missing %s" name;
                -1
          in
          (* 8 clients x 4 submits = 32, of which only the 2 distinct
             digests compute; every other submit must have coalesced. *)
          check (v "serve.submitted" = 32) "submitted=%d, want 32" (v "serve.submitted");
          check (v "serve.completed" = 2) "completed=%d, want 2" (v "serve.completed");
          check (v "serve.coalesced" = 30) "coalesced=%d, want 30" (v "serve.coalesced");
          check (v "serve.rejected" = 0) "rejected=%d, want 0" (v "serve.rejected");
          check (v "serve.failed" = 0) "failed=%d, want 0" (v "serve.failed");
          check (v "store.stores" = 2) "store.stores=%d, want 2" (v "store.stores"));
      Client.close c);
  drain_and_reap ~what:"phase 1 server" socket server;
  let objects, _bytes = Store.disk_usage (Store.create ~dir:cache_dir) in
  check (objects >= 2) "cache holds %d objects after phase 1, want >= 2" objects

(* --- phase 2: overload is shed, never dropped -------------------------- *)

let phase_overload socket =
  (* Canned compute: slow enough that a burst outruns the one worker
     and the depth-2 queue deterministically. *)
  let compute r =
    Unix.sleepf 0.3;
    canned_payload r
  in
  let cfg =
    {
      (Server.default_config ~socket) with
      workers = 1;
      queue_max = 2;
      client_max = 2;
      drain_grace_s = 0.2;
    }
  in
  let server = fork_server ~digest:canned_digest ~compute cfg in
  check (wait_for_server socket) "phase 2 server never came up";
  (match Client.connect ~socket with
  | Error e -> check false "phase 2 connect: %s" (Error.to_string e)
  | Ok c ->
      let requests =
        List.init 6 (fun i ->
            Protocol.request ~slowdown_pct:(float_of_int (i + 1)) workload_name)
      in
      let accepted = ref [] and overloaded = ref 0 in
      List.iter
        (fun req ->
          match Client.submit c req with
          | Ok t -> accepted := (req, t) :: !accepted
          | Error (Error.Overloaded { queue_depth; limit; retry_after_ms }) ->
              incr overloaded;
              check (retry_after_ms >= 100)
                "retry_after_ms=%d, want >= 100" retry_after_ms;
              check (queue_depth >= 0 && limit > 0)
                "nonsense overload report depth=%d limit=%d" queue_depth limit
          | Error e ->
              check false "burst submit rejected oddly: %s" (Error.to_string e))
        requests;
      check (!overloaded >= 1) "no Overloaded rejection in a 6-burst";
      check (List.length !accepted >= 3)
        "only %d accepted, want >= 3" (List.length !accepted);
      (* shed is not dropped: every accepted job still completes *)
      List.iter
        (fun (r, (t : Client.ticket)) ->
          match Client.wait c t.Client.id with
          | Ok Protocol.Done -> (
              match Client.result c t.Client.id with
              | Ok payload ->
                  check (payload = canned_payload r) "job %d payload mismatch"
                    t.Client.id
              | Error e ->
                  check false "result %d: %s" t.Client.id (Error.to_string e))
          | Ok state ->
              check false "accepted job %d ended %s" t.Client.id
                (Protocol.state_name state)
          | Error e -> check false "wait %d: %s" t.Client.id (Error.to_string e))
        !accepted;
      Client.close c);
  drain_and_reap ~what:"phase 2 server" socket server

(* --- phases 3+4: SIGTERM drain, then warm restart ---------------------- *)

let phase_kill_and_restart socket ~expected_online =
  (* The artificial delay guarantees the job is still in flight when
     SIGTERM lands, so the drain path is actually exercised. *)
  let cfg =
    {
      (Server.default_config ~socket) with
      workers = 1;
      compute_delay_s = 0.5;
      drain_grace_s = 5.0;
    }
  in
  let server = fork_server cfg in
  check (wait_for_server socket) "phase 3 server never came up";
  (match Client.connect ~socket with
  | Error e -> check false "phase 3 connect: %s" (Error.to_string e)
  | Ok c ->
      (match Client.submit c r1 with
      | Error e -> check false "phase 3 submit: %s" (Error.to_string e)
      | Ok t ->
          Unix.kill server Sys.sigterm;
          (match Client.wait c t.Client.id with
          | Ok Protocol.Done -> ()
          | Ok state ->
              check false "drained job ended %s" (Protocol.state_name state)
          | Error e -> check false "wait across drain: %s" (Error.to_string e));
          (match Client.result c t.Client.id with
          | Ok payload ->
              check (payload = expected_online)
                "payload served across SIGTERM drain differs"
          | Error e ->
              check false "result across drain: %s" (Error.to_string e));
          (* admission is closed while the server drains *)
          match Client.submit c r0 with
          | Error (Error.Draining _) -> ()
          | Error e ->
              check false "submit during drain: unexpected %s" (Error.to_string e)
          | Ok _ -> check false "submit during drain was admitted");
      Client.close c);
  reap ~what:"phase 3 server (SIGTERM)" server;
  (* warm restart on the same cache: same bytes, served from disk *)
  let server = fork_server { (Server.default_config ~socket) with workers = 1; drain_grace_s = 0.2 } in
  check (wait_for_server socket) "phase 4 server never came up";
  (match Client.connect ~socket with
  | Error e -> check false "phase 4 connect: %s" (Error.to_string e)
  | Ok c ->
      (match Client.run c r1 with
      | Ok payload ->
          check (payload = expected_online) "warm restart served different bytes"
      | Error e -> check false "phase 4 run: %s" (Error.to_string e));
      (match Client.stats c with
      | Ok body ->
          let hits =
            Option.value ~default:0.0 (metric_value body "store.hits")
          in
          check (hits >= 1.0)
            "store.hits=%g after warm restart, want >= 1" hits
      | Error e -> check false "phase 4 stats: %s" (Error.to_string e));
      Client.close c);
  drain_and_reap ~what:"phase 4 server" socket server

(* --- phase 5: completion wakes an idle server's parked wait fast ------- *)

(* The loop's poll timeout is deadline-driven with a 60s idle backstop;
   a completing job must wake it through the self-pipe, not wait for a
   tick. Measured overhead = (submit → wait answered) − the canned
   compute time; best-of-3 absorbs scheduler noise on a loaded box. *)
let phase_idle_wakeup socket =
  let compute_s = 0.2 in
  let compute r =
    Unix.sleepf compute_s;
    canned_payload r
  in
  let cfg =
    { (Server.default_config ~socket) with workers = 1; drain_grace_s = 0.2 }
  in
  let server = fork_server ~digest:canned_digest ~compute cfg in
  check (wait_for_server socket) "phase 5 server never came up";
  (match Client.connect ~socket with
  | Error e -> check false "phase 5 connect: %s" (Error.to_string e)
  | Ok c ->
      let overhead_ms i =
        let req =
          Protocol.request ~slowdown_pct:(float_of_int (100 + i)) workload_name
        in
        let t0 = Time.now_s () in
        match Client.submit c req with
        | Error e ->
            check false "phase 5 submit: %s" (Error.to_string e);
            infinity
        | Ok t -> (
            match Client.wait c t.Client.id with
            | Ok Protocol.Done ->
                ((Time.now_s () -. t0) -. compute_s) *. 1000.0
            | Ok state ->
                check false "phase 5 job ended %s" (Protocol.state_name state);
                infinity
            | Error e ->
                check false "phase 5 wait: %s" (Error.to_string e);
                infinity)
      in
      let best =
        List.fold_left Float.min infinity (List.init 3 overhead_ms)
      in
      check (best < 10.0)
        "idle completion wakeup took %.1fms (best of 3), want < 10ms" best;
      Client.close c);
  drain_and_reap ~what:"phase 5 server" socket server

(* --- phase 6: the per-connection caps ----------------------------------- *)

(* Both caps bound what one connection can make the server hold. With
   [conn_inflight_max = 2] the third wait parked on one pipelined
   connection is refused [Overloaded], hinted, while the first two are
   answered. With a small [outbuf_max_bytes] a reply larger than the
   cap (a [stats] dump) closes its connection before a byte of it is
   sent, and the other connections are still served. *)
let phase_conn_caps socket =
  let compute r =
    Unix.sleepf 0.5;
    canned_payload r
  in
  let cfg =
    {
      (Server.default_config ~socket) with
      workers = 1;
      conn_inflight_max = 2;
      outbuf_max_bytes = 1024;
      drain_grace_s = 0.2;
    }
  in
  let server = fork_server ~digest:canned_digest ~compute cfg in
  check (wait_for_server socket) "phase 6 server never came up";
  (match Pipeline.connect ~socket () with
  | Error e -> check false "phase 6 connect: %s" (Error.to_string e)
  | Ok p ->
      let requests =
        List.init 3 (fun i ->
            Protocol.request ~slowdown_pct:(float_of_int (200 + i)) workload_name)
      in
      let answers = Array.make 3 None in
      List.iteri
        (fun i r -> Pipeline.run p r ~k:(fun a -> answers.(i) <- Some a))
        requests;
      let deadline = Time.now_s () +. 10.0 in
      while Pipeline.in_flight p > 0 && Time.now_s () < deadline do
        ignore (Pipeline.pump ~timeout_ms:50 p)
      done;
      Pipeline.close p;
      List.iteri
        (fun i r ->
          match answers.(i) with
          | Some (Ok payload) when i < 2 ->
              check (payload = canned_payload r) "phase 6 request %d payload" i
          | Some (Error (Error.Overloaded { limit; retry_after_ms; _ }))
            when i = 2 ->
              check (limit = 2) "inflight cap reported limit=%d, want 2" limit;
              check (retry_after_ms >= 100)
                "inflight cap hint %dms, want >= 100ms" retry_after_ms
          | Some (Ok _) -> check false "third parked wait was not refused"
          | Some (Error e) ->
              check false "phase 6 request %d: %s" i (Error.to_string e)
          | None -> check false "phase 6 request %d never answered" i)
        requests);
  (match Client.connect ~socket with
  | Error e -> check false "phase 6 bystander connect: %s" (Error.to_string e)
  | Ok c ->
      (* the hog asks for a stats dump and never reads a reply: the
         server must close it having sent nothing past the greeting *)
      let hog = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect hog (Unix.ADDR_UNIX socket);
      ignore (Unix.write_substring hog "stats\n" 0 6);
      let got = Buffer.create 128 and buf = Bytes.create 4096 in
      let rec until_closed () =
        match Evloop.wait_fd hog ~read:true ~write:false ~timeout_ms:5000 with
        | None -> false
        | Some _ -> (
            match Unix.read hog buf 0 (Bytes.length buf) with
            | 0 -> true
            | n ->
                Buffer.add_subbytes got buf 0 n;
                until_closed ()
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true)
      in
      check (until_closed ()) "a connection past outbuf_max_bytes stayed open";
      Unix.close hog;
      check
        (String.index_opt (Buffer.contents got) '\n'
        = Some (Buffer.length got - 1))
        "the capped connection got more than its greeting: %S"
        (Buffer.contents got);
      let r = Protocol.request ~slowdown_pct:300.0 workload_name in
      (match Client.run c r with
      | Ok payload ->
          check (payload = canned_payload r) "bystander payload mismatch"
      | Error e ->
          check false "bystander not served after the cap closed the hog: %s"
            (Error.to_string e));
      Client.close c);
  drain_and_reap ~what:"phase 6 server" socket server

(* --- main -------------------------------------------------------------- *)

let () =
  (with_temp_dir "mcd-serve-smoke" @@ fun tmp ->
   let socket n = Filename.concat tmp (Printf.sprintf "s%d.sock" n) in
   let cache_dir = Filename.concat tmp "cache" in
   let expected_baseline = one_shot "baseline" workload_name in
   let expected_online = one_shot "online" workload_name in
   (* Servers (forked below) inherit this default store. *)
   Store.set_default (Some (Store.create ~dir:cache_dir));
   phase_concurrency (socket 1) cache_dir ~expected_baseline ~expected_online;
   phase_overload (socket 2);
   phase_kill_and_restart (socket 3) ~expected_online;
   phase_idle_wakeup (socket 5);
   phase_conn_caps (socket 6));
  finish ()
