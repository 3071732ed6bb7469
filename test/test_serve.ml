(* Tests for the experiment service: wire-protocol round-trips, the
   bounded priority job queue, and the scheduler's coalescing,
   backpressure, drain, and failure-isolation behaviour. Socket-level
   behaviour (forked servers, concurrent clients, SIGTERM drain, warm
   restart) is covered end to end by tools/serve_smoke.ml under
   @verify. *)

module Protocol = Mcd_serve.Protocol
module Jobq = Mcd_serve.Jobq
module Scheduler = Mcd_serve.Scheduler
module Journal = Mcd_serve.Journal
module Error = Mcd_robust.Error

let qcheck ?(seed = 0x5e12e) t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
module Inject = Mcd_robust.Inject
module Metrics = Mcd_obs.Metrics
module Rng = Mcd_util.Rng
module B = Mcd_isa.Build
module P = Mcd_isa.Program
module Context = Mcd_profiling.Context
module Plan = Mcd_core.Plan
module Analyze = Mcd_core.Analyze
module Plan_io = Mcd_core.Plan_io

(* --- Protocol --------------------------------------------------------- *)

let all_commands =
  [
    Protocol.Ping;
    Protocol.Submit
      {
        priority = Protocol.High;
        request =
          Protocol.request ~policy:Protocol.Online ~context:"L+F+C+P"
            ~slowdown_pct:12.5 "adpcm decode";
      };
    Protocol.Submit
      { priority = Protocol.Low; request = Protocol.request "mcf" };
    Protocol.Status 7;
    Protocol.Wait 42;
    Protocol.Result 1;
    Protocol.Stats;
    Protocol.Drain;
    Protocol.Quit;
  ]

let test_command_roundtrip () =
  List.iter
    (fun cmd ->
      let line = Protocol.render_command cmd in
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match Protocol.parse_command line with
      | Ok (cmd', seq) ->
          Alcotest.(check bool) line true (cmd = cmd' && seq = None)
      | Error e -> Alcotest.failf "%s does not parse back: %s" line e)
    all_commands

let all_replies =
  [
    Protocol.Ready { version = 1; workers = 4; queue_max = 64 };
    Protocol.Pong;
    Protocol.Queued_reply
      { id = 3; digest = "0123456789abcdef0123456789abcdef"; coalesced = true };
    Protocol.Status_reply { id = 3; state = Protocol.Queued };
    Protocol.Status_reply { id = 3; state = Protocol.Running };
    Protocol.Status_reply { id = 3; state = Protocol.Done };
    Protocol.Status_reply
      { id = 3; state = Protocol.Failed "oops: 50% of\nplans corrupt" };
    Protocol.Payload { id = 9; bytes = 12345 };
    Protocol.Stats_payload { bytes = 0 };
    Protocol.Draining_reply;
    Protocol.Rejected
      (Protocol.Overloaded { queue_depth = 64; limit = 64; retry_after_ms = 250 });
    Protocol.Rejected Protocol.Draining;
    Protocol.Rejected (Protocol.Bad_request "unknown workload \"x y\"");
    Protocol.Rejected (Protocol.Unknown_job 17);
    Protocol.Rejected (Protocol.Job_failed { id = 2; message = "plan rejected" });
    Protocol.Rejected (Protocol.Not_done 4);
    Protocol.Rejected (Protocol.Deadline { id = 5; deadline_ms = 150 });
  ]

let test_reply_roundtrip () =
  List.iter
    (fun reply ->
      let line = Protocol.render_reply reply in
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match Protocol.parse_reply line with
      | Ok (reply', seq) ->
          Alcotest.(check bool) line true (reply = reply' && seq = None)
      | Error e -> Alcotest.failf "%s does not parse back: %s" line e)
    all_replies

let test_parse_rejects_garbage () =
  List.iter
    (fun line ->
      match Protocol.parse_command line with
      | Ok _ -> Alcotest.failf "command %S accepted" line
      | Error _ -> ())
    [
      "";
      "launch";
      "status";  (* missing id *)
      "status id=abc";
      "submit pri=urgent workload=mcf policy=profile context=F slowdown=7.";
      "submit pri=high workload=mcf policy=psychic context=F slowdown=7.";
      "submit pri=high workload=mcf policy=profile context=F slowdown=fast";
      "submit pri=high workload=m%2f policy=profile context=F slowdown=7.";
      (* bad escape *)
    ];
  List.iter
    (fun line ->
      match Protocol.parse_reply line with
      | Ok _ -> Alcotest.failf "reply %S accepted" line
      | Error _ -> ())
    [ ""; "status id=1 state=confused"; "error code=mystery"; "mcd-serve/x ready" ]

(* --- pipelined framing ------------------------------------------------- *)

let test_seq_roundtrip () =
  List.iter
    (fun cmd ->
      let line = Protocol.render_command ~seq:321 cmd in
      match Protocol.parse_command line with
      | Ok (cmd', Some 321) when cmd' = cmd -> ()
      | Ok (_, seq) ->
          Alcotest.failf "%s: seq came back %s" line
            (match seq with None -> "absent" | Some n -> string_of_int n)
      | Error e -> Alcotest.failf "%s does not parse back: %s" line e)
    all_commands;
  List.iter
    (fun reply ->
      let line = Protocol.render_reply ~seq:7 reply in
      match Protocol.parse_reply line with
      | Ok (reply', Some 7) when reply' = reply -> ()
      | Ok _ -> Alcotest.failf "%s: reply or seq mangled" line
      | Error e -> Alcotest.failf "%s does not parse back: %s" line e)
    all_replies

(* A generated frame: a reply line (maybe seq-tagged), plus a body for
   payload-carrying headers. Bodies are arbitrary bytes — newlines,
   percent signs, even "end\n" — the byte-count framing must not care. *)
let frame_gen =
  QCheck.Gen.(
    let body = string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 80) in
    let seq = opt (int_bound 10_000) in
    let plain =
      oneofl
        [
          Protocol.Pong;
          Protocol.Draining_reply;
          Protocol.Queued_reply { id = 3; digest = "abc123"; coalesced = false };
          Protocol.Status_reply { id = 9; state = Protocol.Running };
          Protocol.Status_reply { id = 2; state = Protocol.Failed "b%d\nx" };
          Protocol.Rejected
            (Protocol.Overloaded
               { queue_depth = 4; limit = 4; retry_after_ms = 120 });
          Protocol.Rejected (Protocol.Unknown_job 5);
        ]
    in
    let* s = seq in
    frequency
      [
        (3, map (fun r -> (r, s, None)) plain);
        ( 1,
          map
            (fun b ->
              (Protocol.Payload { id = 1; bytes = String.length b }, s, Some b))
            body );
        ( 1,
          map
            (fun b ->
              (Protocol.Stats_payload { bytes = String.length b }, s, Some b))
            body );
      ])

let render_frame (reply, seq, body) =
  Protocol.render_reply ?seq reply ^ "\n"
  ^ match body with None -> "" | Some b -> b ^ "end\n"

(* Split [s] into chunks at arbitrary boundaries driven by [cuts]. *)
let chunks_of cuts s =
  let n = String.length s in
  let rec go off cuts acc =
    if off >= n then List.rev acc
    else
      match cuts with
      | [] -> List.rev (String.sub s off (n - off) :: acc)
      | c :: rest ->
          let len = min (max 1 c) (n - off) in
          go (off + len) rest (String.sub s off len :: acc)
  in
  go 0 cuts []

let prop_frames_roundtrip =
  QCheck.Test.make ~name:"Frames: chunked stream decodes to the same frames"
    ~count:300
    QCheck.(
      make
        ~print:(fun (frames, cuts) ->
          Printf.sprintf "cuts=[%s]\nwire=%S"
            (String.concat ";" (List.map string_of_int cuts))
            (String.concat "" (List.map render_frame frames)))
        Gen.(
          let* frames = list_size (int_range 1 8) frame_gen in
          let* cuts = list_size (int_bound 40) (int_range 1 17) in
          return (frames, cuts)))
    (fun (frames, cuts) ->
      let wire = String.concat "" (List.map render_frame frames) in
      let dec = Protocol.Frames.create () in
      let out = ref [] in
      let rec drain () =
        match Protocol.Frames.next dec with
        | `Frame f -> out := f :: !out;
            drain ()
        | `Await -> ()
        | `Error e -> QCheck.Test.fail_reportf "decode error: %s" e
      in
      List.iter
        (fun chunk ->
          Protocol.Frames.feed dec chunk;
          drain ())
        (chunks_of cuts wire);
      let got = List.rev !out in
      if List.length got <> List.length frames then
        QCheck.Test.fail_reportf "decoded %d frames, fed %d"
          (List.length got) (List.length frames);
      List.iter2
        (fun (reply, seq, body) (f : Protocol.Frames.frame) ->
          (* order, reply, seq tag and body must all survive chunking *)
          if f.reply <> reply || f.seq <> seq || f.body <> body then
            QCheck.Test.fail_reportf "frame mismatch on %s"
              (Protocol.render_reply ?seq reply))
        frames got;
      Protocol.Frames.buffered dec = 0)

let test_frames_oversized_rejected () =
  let dec = Protocol.Frames.create ~max_payload:100 () in
  Protocol.Frames.feed dec "payload id=1 bytes=101\n";
  (match Protocol.Frames.next dec with
  | `Error _ -> ()
  | `Frame _ | `Await ->
      Alcotest.fail "oversized payload header not refused");
  (* the error is terminal: feeding more never recovers *)
  Protocol.Frames.feed dec "pong\n";
  (match Protocol.Frames.next dec with
  | `Error _ -> ()
  | _ -> Alcotest.fail "decode error was not sticky");
  let dec2 = Protocol.Frames.create () in
  Protocol.Frames.feed dec2 "payload id=1 bytes=-4\n";
  (match Protocol.Frames.next dec2 with
  | `Error _ -> ()
  | _ -> Alcotest.fail "negative byte count not refused");
  (* a bad trailer is a desync, not a skippable frame *)
  let dec3 = Protocol.Frames.create () in
  Protocol.Frames.feed dec3 "payload id=1 bytes=2\nhiXXX\n";
  match Protocol.Frames.next dec3 with
  | `Error _ -> ()
  | _ -> Alcotest.fail "corrupt trailer not refused"

let test_request_normalization_digests () =
  (* the digest is the persistent-store key: spellings a policy cannot
     observe must collapse onto one identity, real differences must
     not *)
  let digest req =
    match Mcd_serve.Server.request_digest req with
    | Ok d -> d
    | Error e -> Alcotest.failf "request_digest: %s" e
  in
  let base = Protocol.request ~policy:Protocol.Baseline "adpcm decode" in
  let base' =
    Protocol.request ~policy:Protocol.Baseline ~context:"F" ~slowdown_pct:1.0
      "adpcm decode"
  in
  Alcotest.(check string) "baseline ignores context+slowdown" (digest base)
    (digest base');
  let prof = Protocol.request ~policy:Protocol.Profile "adpcm decode" in
  let prof_ctx =
    Protocol.request ~policy:Protocol.Profile ~context:"F" "adpcm decode"
  in
  let prof_slow =
    Protocol.request ~policy:Protocol.Profile ~slowdown_pct:3.0 "adpcm decode"
  in
  Alcotest.(check bool) "profile distinguishes context" false
    (digest prof = digest prof_ctx);
  Alcotest.(check bool) "profile distinguishes slowdown" false
    (digest prof = digest prof_slow);
  Alcotest.(check bool) "policies distinguished" false
    (digest base = digest prof);
  match Mcd_serve.Server.request_digest (Protocol.request "no such bench") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown workload digested"

(* Pinned served and run keys. A served request's digest is the store
   address of the run it names, so a change here strands every stored
   result and every journal entry: key fragments may be derived faster,
   never differently. *)
let served_key_pins =
  [
    ("adpcm decode", Protocol.Baseline, "80430514fd818eef62816b70f0b28d6d");
    ("adpcm decode", Protocol.Online, "557f8ea4604bc641124466fa8a161cd4");
    ("adpcm decode", Protocol.Offline, "1f886cd9f7139919fbff9b5b4e4ab10a");
    ("adpcm decode", Protocol.Profile, "643f3ef71c5b4fe9b426ed25b4333b2b");
    ("adpcm encode", Protocol.Baseline, "a17b65f57c1f2e1d2f4df409ce9d6c92");
    ("adpcm encode", Protocol.Online, "af18ff138563ac73d69060564b6c6115");
    ("adpcm encode", Protocol.Offline, "2d659faf613334f9488ef1e54479fcd6");
    ("adpcm encode", Protocol.Profile, "727d744e4e408a324e9684662a326a81");
    ("applu", Protocol.Baseline, "0d62796a078cd33dd4ea3cbb8aebb5bf");
    ("applu", Protocol.Online, "0c2c5acfad8fd3e28c3a7ccb809c00c5");
    ("applu", Protocol.Offline, "eb915906b5b36ca13dcb0818e1afbd04");
    ("applu", Protocol.Profile, "82421e19d83c06201b3ed52297ae89a0");
  ]

(* [Runner.policy_key] on adpcm decode, by registry label *)
let policy_key_pins =
  [
    ("baseline", "80430514fd818eef62816b70f0b28d6d");
    ("online", "557f8ea4604bc641124466fa8a161cd4");
    ("online-eager", "2de2e0cdd419ad3667e82a1a84d117fa");
    ("pid", "cc1b3408c93f88fb9e1e42d669768a24");
    ("cache-aware", "523025d68e6a4a6dccfc11a79b4c65d2");
    ("util-prop", "dc7a55183e039dbd6fad9d7cb0ec5bde");
    ("fixed-750", "489816c19f92992963797ed8a16c5a86");
  ]

let served_digest (workload, policy, _) =
  match
    Mcd_serve.Server.request_digest
      (Protocol.request ~policy ~context:"L+F" ~slowdown_pct:7.0 workload)
  with
  | Ok d -> d
  | Error e -> Alcotest.failf "request_digest %s: %s" workload e

let pinned_policy_keys () =
  List.map
    (fun (p : Mcd_control.Policy.t) ->
      ( p.Mcd_control.Policy.label,
        Mcd_cache.Key.digest
          (Mcd_experiments.Runner.policy_key p Mcd_workloads.Mediabench.adpcm_decode) ))
    (Mcd_control.Policies.all ())

let test_served_keys_pinned () =
  (* twice: the second pass reads whatever the first one memoized *)
  for _ = 1 to 2 do
    List.iter
      (fun ((w, p, want) as pin) ->
        Alcotest.(check string)
          (Printf.sprintf "%s %s" w (Protocol.policy_name p))
          want (served_digest pin))
      served_key_pins;
    Alcotest.(check (list (pair string string)))
      "policy keys" policy_key_pins (pinned_policy_keys ())
  done;
  let module Runner = Mcd_experiments.Runner in
  let mode = Runner.get_sim_mode () in
  Fun.protect
    ~finally:(fun () -> Runner.set_sim_mode mode)
    (fun () ->
      Runner.set_sim_mode (Runner.Sampled Mcd_cpu.Sampler.default_params);
      Alcotest.(check string)
        "sampled profile" "c846e2a80947c5d763600b5afc5f2a4d"
        (served_digest ("adpcm decode", Protocol.Profile, "")))

let test_served_keys_pinned_across_domains () =
  (* every worker domain derives every key from its own memo tables *)
  let derive () =
    (List.map served_digest served_key_pins, pinned_policy_keys ())
  in
  let want = (List.map (fun (_, _, d) -> d) served_key_pins, policy_key_pins) in
  List.iteri
    (fun i got ->
      Alcotest.(check (pair (list string) (list (pair string string))))
        (Printf.sprintf "derivation %d" i)
        want got)
    (Mcd_util.Par.map ~jobs:4 derive (List.init 8 (fun _ -> ())))

let test_error_of_reject_exit_codes () =
  let code r = Error.exit_code (Protocol.error_of_reject r) in
  Alcotest.(check int) "overloaded -> 4" 4
    (code (Protocol.Overloaded { queue_depth = 1; limit = 1; retry_after_ms = 100 }));
  Alcotest.(check int) "draining -> 4" 4 (code Protocol.Draining);
  Alcotest.(check int) "bad request -> 2" 2 (code (Protocol.Bad_request "x"));
  Alcotest.(check int) "unknown job -> 2" 2 (code (Protocol.Unknown_job 1));
  Alcotest.(check int) "deadline -> 2" 2
    (code (Protocol.Deadline { id = 1; deadline_ms = 100 }))

(* --- Jobq ------------------------------------------------------------- *)

let test_jobq_priority_fifo () =
  let q = Jobq.create ~queue_max:16 ~client_max:16 () in
  let push level client item =
    match Jobq.push q ~level ~client item with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "push rejected below the bound"
  in
  push 2 "a" "low1";
  push 1 "a" "norm1";
  push 0 "a" "high1";
  push 1 "a" "norm2";
  push 0 "b" "high2";
  let order = List.init 5 (fun _ -> Option.get (Jobq.pop q)) in
  Alcotest.(check (list string)) "levels first, FIFO within"
    [ "high1"; "high2"; "norm1"; "norm2"; "low1" ]
    order;
  Alcotest.(check bool) "drained" true (Jobq.pop q = None)

let test_jobq_bounds () =
  let q = Jobq.create ~queue_max:3 ~client_max:2 () in
  let push client item = Jobq.push q ~level:1 ~client item in
  Alcotest.(check bool) "1 ok" true (push "a" 1 = Ok ());
  Alcotest.(check bool) "2 ok" true (push "a" 2 = Ok ());
  (match push "a" 3 with
  | Error (Jobq.Client_full n) -> Alcotest.(check int) "client pending" 2 n
  | _ -> Alcotest.fail "third job for one client admitted");
  Alcotest.(check bool) "other client ok" true (push "b" 3 = Ok ());
  (match push "c" 4 with
  | Error (Jobq.Queue_full n) -> Alcotest.(check int) "global depth" 3 n
  | _ -> Alcotest.fail "job beyond the global bound admitted");
  (* popping releases both the global slot and the client's slot *)
  ignore (Jobq.pop q);
  Alcotest.(check int) "client released" 1 (Jobq.client_pending q "a");
  Alcotest.(check bool) "slot freed" true (push "a" 5 = Ok ())

let test_jobq_level_clamped () =
  let q = Jobq.create ~queue_max:4 ~client_max:4 () in
  ignore (Jobq.push q ~level:(-3) ~client:"a" "early");
  ignore (Jobq.push q ~level:99 ~client:"a" "late");
  Alcotest.(check (option string)) "clamped high" (Some "early") (Jobq.pop q);
  Alcotest.(check (option string)) "clamped low" (Some "late") (Jobq.pop q)

let test_jobq_rejects_bad_bounds () =
  List.iter
    (fun f ->
      Alcotest.(check bool) "Invalid_argument" true
        (match f () with
        | (_ : int Jobq.t) -> false
        | exception Invalid_argument _ -> true))
    [
      (fun () -> Jobq.create ~queue_max:0 ~client_max:1 ());
      (fun () -> Jobq.create ~queue_max:1 ~client_max:0 ());
      (fun () -> Jobq.create ~levels:0 ~queue_max:1 ~client_max:1 ());
    ]

let test_jobq_force_bypasses_bounds () =
  (* journal replay re-queues jobs that were already admitted once:
     [~force] must bypass both the global and the per-client bound, so
     a restart with a smaller queue config can never drop them *)
  let q = Jobq.create ~queue_max:1 ~client_max:1 () in
  Alcotest.(check bool) "fills" true
    (Jobq.push q ~level:1 ~client:"a" "one" = Ok ());
  (match Jobq.push q ~level:1 ~client:"a" "two" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bound not enforced without force");
  Alcotest.(check bool) "replay bypasses both bounds" true
    (Jobq.push ~force:true q ~level:1 ~client:"a" "replayed" = Ok ());
  Alcotest.(check int) "forced job counted" 2 (Jobq.length q);
  (* forced admissions still release like ordinary ones *)
  ignore (Jobq.pop q);
  ignore (Jobq.pop q);
  Alcotest.(check int) "client slots released" 0 (Jobq.client_pending q "a")

let test_jobq_fairness_under_pipelining () =
  (* A pipelined connection can burst hundreds of submits in one loop
     iteration. The per-client cap must hold under that shape: the
     greedy client gets exactly [client_max] slots no matter how hard
     it bursts, everyone else still gets in, and — since the greedy
     client can never occupy the whole queue — a victim's job is
     served after at most [client_max] greedy ones. *)
  let queue_max = 16 and client_max = 4 in
  let q = Jobq.create ~queue_max ~client_max () in
  let greedy_in = ref 0 in
  for i = 1 to 100 do
    match Jobq.push q ~level:1 ~client:"greedy" (Printf.sprintf "g%d" i) with
    | Ok () -> incr greedy_in
    | Error (Jobq.Client_full n) ->
        Alcotest.(check int) "cap reported at the bound" client_max n
    | Error (Jobq.Queue_full _) ->
        Alcotest.fail "greedy burst filled the global queue"
  done;
  Alcotest.(check int) "greedy capped" client_max !greedy_in;
  Alcotest.(check int) "greedy pending" client_max
    (Jobq.client_pending q "greedy");
  (* latecomers still get in behind the capped burst *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "victim %s admitted" c)
        true
        (Jobq.push q ~level:1 ~client:c ("job-" ^ c) = Ok ()))
    [ "v1"; "v2"; "v3" ];
  (* the victim is served after at most client_max greedy jobs *)
  let rec pops_until_victim n =
    match Jobq.pop q with
    | Some "job-v1" -> n
    | Some _ -> pops_until_victim (n + 1)
    | None -> Alcotest.fail "victim job never popped"
  in
  let ahead = pops_until_victim 0 in
  Alcotest.(check bool)
    (Printf.sprintf "victim waited behind %d <= %d greedy jobs" ahead
       client_max)
    true (ahead <= client_max);
  (* drained greedy slots free up for its next burst — backpressure,
     not a ban *)
  Alcotest.(check bool) "greedy readmitted after pops" true
    (Jobq.push q ~level:1 ~client:"greedy" "next" = Ok ())

(* --- Journal ----------------------------------------------------------- *)

let journal_entry ~id workload =
  {
    Journal.id;
    client = "tester";
    priority = Protocol.High;
    digest = "digest:" ^ workload;
    request =
      Protocol.request ~policy:Protocol.Online ~context:"L+F+C+P"
        ~slowdown_pct:12.5 workload;
  }

let with_journal_path f =
  let path = Filename.temp_file "mcd_journal_test" ".journal" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let open_ok path =
  match Journal.open_journal ~fsync:false ~path () with
  | Ok v -> v
  | Error e -> Alcotest.failf "open_journal: %s" (Error.to_string e)

let replay_ids (r : Journal.recovery) =
  List.map (fun (e : Journal.entry) -> e.Journal.id) r.Journal.replay

let test_journal_entry_roundtrip () =
  let e = journal_entry ~id:42 "adpcm decode" in
  let line = Journal.render_entry e in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  match Journal.parse_entry line with
  | Ok e' -> Alcotest.(check bool) line true (e = e')
  | Error m -> Alcotest.failf "%s does not parse back: %s" line m

let test_journal_recovery_and_compaction () =
  with_journal_path @@ fun path ->
  (* session 1: three admits, one done, one failed *)
  let j, r0 = open_ok path in
  Alcotest.(check (list int)) "fresh journal replays nothing" [] (replay_ids r0);
  Journal.admit j (journal_entry ~id:1 "a");
  Journal.admit j (journal_entry ~id:2 "b");
  Journal.admit j (journal_entry ~id:3 "c");
  Journal.mark_done j ~id:1;
  Journal.mark_failed j ~id:2 ~msg:"boom: 50% of\nplans corrupt";
  let s = Journal.stats j in
  Alcotest.(check int) "admits counted" 3 s.Journal.admitted;
  Alcotest.(check int) "terminals counted" 2 s.Journal.finished;
  Journal.close j;
  (* session 2: only the incomplete job replays, with ids preserved *)
  let j2, r = open_ok path in
  Alcotest.(check (list int)) "incomplete admit replays" [ 3 ] (replay_ids r);
  Alcotest.(check int) "done seen" 1 r.Journal.completed;
  Alcotest.(check int) "fail seen" 1 r.Journal.failed;
  Alcotest.(check int) "next id past every admit" 4 r.Journal.next_id;
  Alcotest.(check bool) "no torn tail" false r.Journal.torn;
  Alcotest.(check bool) "no corruption" true (r.Journal.corrupt = None);
  (match r.Journal.replay with
  | [ e ] -> Alcotest.(check bool) "entry survives intact" true
               (e = journal_entry ~id:3 "c")
  | _ -> Alcotest.fail "expected exactly one replay entry");
  Journal.close j2;
  (* open compacted away the terminal records: a third session sees an
     already-clean log with the same single incomplete admit *)
  let j3, r2 = open_ok path in
  Alcotest.(check (list int)) "compacted log replays the same" [ 3 ]
    (replay_ids r2);
  Alcotest.(check int) "terminal records rewritten away" 0 r2.Journal.completed;
  (* finish the last job: the next recovery has nothing to replay, but
     the compacted log's [next] record must still hold the high-water
     id — ids of jobs completed before a crash are owned by the clients
     they were acked to, and must never be reissued *)
  Journal.mark_done j3 ~id:3;
  Journal.close j3;
  let j4, r3 = open_ok path in
  Alcotest.(check (list int)) "nothing left to replay" [] (replay_ids r3);
  Alcotest.(check int) "high-water id survives empty-replay compaction" 4
    r3.Journal.next_id;
  Journal.close j4;
  (* ...and survives a second compaction, when only the [next] record
     itself carries the mark *)
  let j5, r4 = open_ok path in
  Alcotest.(check int) "high-water id survives recompaction" 4
    r4.Journal.next_id;
  Journal.close j5

let test_journal_torn_tail_dropped () =
  with_journal_path @@ fun path ->
  let j, _ = open_ok path in
  Journal.admit j (journal_entry ~id:1 "a");
  Journal.admit j (journal_entry ~id:2 "b");
  Journal.close j;
  (* cut into the last record's [end] trailer: a torn append *)
  let len = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (len - 2);
  Unix.close fd;
  let j2, r = open_ok path in
  Alcotest.(check bool) "torn tail detected" true r.Journal.torn;
  Alcotest.(check bool) "torn is not corruption" true (r.Journal.corrupt = None);
  Alcotest.(check (list int)) "good prefix wins" [ 1 ] (replay_ids r);
  Alcotest.(check int) "torn recovery surfaces in stats" 1
    (Journal.stats j2).Journal.recovered_torn;
  Journal.close j2

let test_journal_midfile_corruption_typed () =
  with_journal_path @@ fun path ->
  let j, _ = open_ok path in
  Journal.admit j (journal_entry ~id:1 "a");
  Journal.admit j (journal_entry ~id:2 "b");
  Journal.close j;
  (* scribble over the first record's header: framing breaks before
     the tail, which is corruption, not a torn append *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.write_substring fd "rot" 0 3);
  Unix.close fd;
  let j2, r = open_ok path in
  (match r.Journal.corrupt with
  | Some (Error.Journal_corrupt _) -> ()
  | Some e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | None -> Alcotest.fail "mid-file corruption not reported");
  Alcotest.(check bool) "corruption is not a torn tail" false r.Journal.torn;
  Alcotest.(check (list int)) "suffix after the bad record dropped" []
    (replay_ids r);
  Alcotest.(check int) "corrupt recovery surfaces in stats" 1
    (Journal.stats j2).Journal.recovered_corrupt;
  Journal.close j2;
  (* ...and a framed record whose body does not parse is also typed
     corruption: the good prefix before it still replays *)
  let good = journal_entry ~id:7 "a" in
  let body = Journal.render_entry good ^ "\n" in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "rec admit bytes=%d\n%send\n" (String.length body) body;
      Out_channel.output_string oc "rec admit bytes=4\nxyz\nend\n");
  let j3, r2 = open_ok path in
  (match r2.Journal.corrupt with
  | Some (Error.Journal_corrupt _) -> ()
  | _ -> Alcotest.fail "unparseable body not reported as corruption");
  Alcotest.(check (list int)) "prefix before the bad body replays" [ 7 ]
    (replay_ids r2);
  Journal.close j3

(* --- Scheduler -------------------------------------------------------- *)

let digest_of (r : Protocol.request) = r.Protocol.workload

let with_scheduler ?(workers = 1) ?(queue_max = 8) ?(client_max = 8) ~compute f =
  let s = Scheduler.create ~workers ~queue_max ~client_max ~compute () in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown s) (fun () -> f s)

let submit s req =
  Scheduler.submit s ~client:"t" ~priority:Protocol.Normal
    ~digest:(digest_of req) req

let test_scheduler_runs_and_coalesces () =
  let computed = Atomic.make 0 in
  let compute (r : Protocol.request) =
    Atomic.incr computed;
    "payload:" ^ r.Protocol.workload
  in
  with_scheduler ~workers:2 ~compute @@ fun s ->
  let a = Protocol.request "a" and b = Protocol.request "b" in
  let id_a =
    match submit s a with
    | Scheduler.Accepted info -> info.Scheduler.id
    | _ -> Alcotest.fail "first submit not accepted"
  in
  (match submit s b with
  | Scheduler.Accepted _ -> ()
  | _ -> Alcotest.fail "distinct digest not accepted");
  (* duplicate of a queued/running/finished job always coalesces *)
  (match submit s a with
  | Scheduler.Coalesced info ->
      Alcotest.(check int) "same job" id_a info.Scheduler.id
  | _ -> Alcotest.fail "duplicate did not coalesce");
  (match Scheduler.wait_job ~timeout_s:10.0 s id_a with
  | Some { Scheduler.state = Scheduler.Done payload; _ } ->
      Alcotest.(check string) "payload" "payload:a" payload
  | _ -> Alcotest.fail "job a never finished");
  Alcotest.(check bool) "drains idle" true (Scheduler.await_idle ~timeout_s:10.0 s);
  (* late duplicate after completion still coalesces (served warm) *)
  (match submit s a with
  | Scheduler.Coalesced info ->
      Alcotest.(check int) "same finished job" id_a info.Scheduler.id;
      Alcotest.(check int) "submit count" 3 info.Scheduler.submits
  | _ -> Alcotest.fail "late duplicate did not coalesce");
  Alcotest.(check int) "each digest computed once" 2 (Atomic.get computed);
  Scheduler.with_registry s (fun m ->
      let v name = Metrics.value (Metrics.counter m name) in
      Alcotest.(check int) "submitted" 4 (v "serve.submitted");
      Alcotest.(check int) "coalesced" 2 (v "serve.coalesced");
      Alcotest.(check int) "completed" 2 (v "serve.completed");
      Alcotest.(check int) "failed" 0 (v "serve.failed"))

let test_scheduler_backpressure () =
  (* one worker stuck on a slow job, a depth-2 queue: the burst must be
     rejected with a typed, hinted Overloaded — and nothing admitted
     may be lost *)
  let gate = Atomic.make false in
  let compute (r : Protocol.request) =
    while not (Atomic.get gate) do
      Unix.sleepf 0.002
    done;
    r.Protocol.workload
  in
  with_scheduler ~workers:1 ~queue_max:2 ~compute @@ fun s ->
  let accepted = ref [] in
  let rejected = ref 0 in
  (* park the first job on the worker before bursting, so the depth-2
     queue is empty when the burst arrives and the count is exact *)
  (match submit s (Protocol.request "job0") with
  | Scheduler.Accepted info -> accepted := [ info.Scheduler.id ]
  | _ -> Alcotest.fail "first job not accepted");
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Scheduler.queue_depth s > 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Alcotest.(check int) "worker holds job0" 1 (Scheduler.busy s);
  for i = 1 to 5 do
    match submit s (Protocol.request (Printf.sprintf "job%d" i)) with
    | Scheduler.Accepted info -> accepted := info.Scheduler.id :: !accepted
    | Scheduler.Rejected (Protocol.Overloaded { retry_after_ms; limit; _ }) ->
        incr rejected;
        Alcotest.(check bool) "hint present" true (retry_after_ms >= 100);
        Alcotest.(check int) "limit reported" 2 limit
    | _ -> Alcotest.fail "unexpected admission verdict"
  done;
  (* worker holds one job; the queue holds two more *)
  Alcotest.(check int) "admitted" 3 (List.length !accepted);
  Alcotest.(check int) "shed" 3 !rejected;
  Atomic.set gate true;
  List.iter
    (fun id ->
      match Scheduler.wait_job ~timeout_s:10.0 s id with
      | Some { Scheduler.state = Scheduler.Done _; _ } -> ()
      | _ -> Alcotest.failf "admitted job %d was dropped" id)
    !accepted

let test_scheduler_drain_rejects () =
  with_scheduler ~compute:(fun _ -> "x") @@ fun s ->
  Scheduler.set_draining s;
  match submit s (Protocol.request "late") with
  | Scheduler.Rejected Protocol.Draining -> ()
  | _ -> Alcotest.fail "submit during drain not rejected as Draining"

(* Satellite regression: a worker whose compute raises — here tripping
   over an Inject-corrupted plan artifact — must fail its own job with
   the message and backtrace attached, and the pool must keep serving
   the jobs behind it. *)
let two_phase_program () =
  B.program ~name:"twophase" @@ fun b ->
  B.func b "int_phase"
    [ B.loop b (P.Const 60) [ B.straight b ~length:40 () ] ];
  B.func b "fp_phase"
    [ B.loop b (P.Const 60) [ B.straight b ~length:40 ~frac_fp_alu:0.35 () ] ];
  B.func b "main"
    [ B.loop b (P.Const 15) [ B.call b "int_phase"; B.call b "fp_phase" ] ];
  "main"

let test_scheduler_fault_isolation () =
  let train = { P.input_name = "t"; scale = 1; divergence = 0.0; seed = 33 } in
  let plan, _ =
    Analyze.analyze ~program:(two_phase_program ()) ~train ~context:Context.lf
      ~threshold_insts:1_500 ~profile_insts:80_000 ~trace_insts:40_000 ()
  in
  let path = Filename.temp_file "mcd_serve_test" ".plan" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Plan_io.save plan ~path;
  let rng = Rng.split (Rng.create 11) ~label:"serve" in
  Inject.corrupt_file Inject.Truncate ~rng ~path;
  let compute (r : Protocol.request) =
    (if r.Protocol.workload = "boom" then
       match Plan_io.load_result ~path ~tree:plan.Plan.tree with
       | Ok _ -> ()
       | Error errors ->
           failwith (String.concat "; " (List.map Error.to_string errors)));
    "survived"
  in
  with_scheduler ~compute @@ fun s ->
  let id_boom =
    match submit s (Protocol.request "boom") with
    | Scheduler.Accepted info -> info.Scheduler.id
    | _ -> Alcotest.fail "boom not accepted"
  in
  let id_ok =
    match submit s (Protocol.request "after") with
    | Scheduler.Accepted info -> info.Scheduler.id
    | _ -> Alcotest.fail "follow-up not accepted"
  in
  (match Scheduler.wait_job ~timeout_s:10.0 s id_boom with
  | Some { Scheduler.state = Scheduler.Failed { message; backtrace }; _ } ->
      Alcotest.(check bool) "carries the diagnostic" true (message <> "");
      Alcotest.(check bool) "carries a backtrace slot" true
        (String.length backtrace >= 0)
  | Some { Scheduler.state = Scheduler.Done _; _ } ->
      Alcotest.fail "corrupted plan load did not fail"
  | _ -> Alcotest.fail "boom job never turned terminal");
  (* the queue behind the fault keeps draining *)
  (match Scheduler.wait_job ~timeout_s:10.0 s id_ok with
  | Some { Scheduler.state = Scheduler.Done payload; _ } ->
      Alcotest.(check string) "pool survived" "survived" payload
  | _ -> Alcotest.fail "job behind the fault was wedged");
  Scheduler.with_registry s (fun m ->
      Alcotest.(check int) "failure counted" 1
        (Metrics.value (Metrics.counter m "serve.failed")))

let test_scheduler_deadline_watchdog () =
  let compute (r : Protocol.request) =
    if r.Protocol.workload = "slow" then Unix.sleepf 0.6;
    "done:" ^ r.Protocol.workload
  in
  let s = Scheduler.create ~workers:1 ~deadline_s:0.05 ~compute () in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown s) @@ fun () ->
  let id_slow =
    match submit s (Protocol.request "slow") with
    | Scheduler.Accepted info -> info.Scheduler.id
    | _ -> Alcotest.fail "slow job not accepted"
  in
  (match Scheduler.wait_job ~timeout_s:10.0 s id_slow with
  | Some { Scheduler.state = Scheduler.Failed { message; _ }; timed_out; _ } ->
      Alcotest.(check string) "typed deadline message"
        (Error.to_string
           (Error.Deadline_exceeded { id = id_slow; deadline_ms = 50 }))
        message;
      Alcotest.(check bool) "flagged timed out" true timed_out
  | Some { Scheduler.state = Scheduler.Done _; _ } ->
      Alcotest.fail "overdue job served anyway"
  | _ -> Alcotest.fail "overdue job never turned terminal");
  (* the watchdog fails the job, never the pool: a replacement worker
     serves the next job while the stuck compute is still sleeping *)
  let id_ok =
    match submit s (Protocol.request "after") with
    | Scheduler.Accepted info -> info.Scheduler.id
    | _ -> Alcotest.fail "follow-up not accepted"
  in
  (match Scheduler.wait_job ~timeout_s:10.0 s id_ok with
  | Some { Scheduler.state = Scheduler.Done payload; _ } ->
      Alcotest.(check string) "replacement worker serves" "done:after" payload
  | _ -> Alcotest.fail "job behind the deadline casualty was wedged");
  Scheduler.with_registry s (fun m ->
      let v name = Metrics.value (Metrics.counter m name) in
      Alcotest.(check int) "deadline counted" 1 (v "serve.deadline_exceeded");
      Alcotest.(check int) "counted as a failure too" 1 (v "serve.failed"))

let test_scheduler_retry_after_cap () =
  let compute _ =
    Unix.sleepf 0.25;
    "x"
  in
  let s = Scheduler.create ~workers:1 ~retry_after_cap_ms:120 ~compute () in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown s) @@ fun () ->
  Alcotest.(check int) "floor before any sample" 100 (Scheduler.retry_after_ms s);
  let id =
    match submit s (Protocol.request "slow-sample") with
    | Scheduler.Accepted info -> info.Scheduler.id
    | _ -> Alcotest.fail "job not accepted"
  in
  (match Scheduler.wait_job ~timeout_s:10.0 s id with
  | Some { Scheduler.state = Scheduler.Done _; _ } -> ()
  | _ -> Alcotest.fail "sample job never finished");
  (* the EWMA now sits near 250 ms: the advertised hint must clamp to
     the configured ceiling instead of telling clients to back off for
     the full observed latency *)
  Alcotest.(check int) "hint clamped to the cap" 120
    (Scheduler.retry_after_ms s)

let test_scheduler_restore_replays () =
  let computed = Atomic.make 0 in
  let compute (r : Protocol.request) =
    Atomic.incr computed;
    "payload:" ^ r.Protocol.workload
  in
  (* a depth-1 queue with two replayed entries: restore must force both
     past the admission bound, preserve their journaled ids, and keep
     fresh ids from colliding with replayed ones *)
  let s = Scheduler.create ~workers:1 ~queue_max:1 ~compute () in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown s) @@ fun () ->
  let entries =
    [
      { (journal_entry ~id:4 "a") with Journal.priority = Protocol.Normal };
      { (journal_entry ~id:9 "b") with Journal.priority = Protocol.Normal };
    ]
  in
  Alcotest.(check int) "both entries restored" 2
    (Scheduler.restore s ~next_id:10 entries);
  List.iter
    (fun id ->
      match Scheduler.wait_job ~timeout_s:10.0 s id with
      | Some { Scheduler.state = Scheduler.Done _; _ } -> ()
      | _ -> Alcotest.failf "replayed job %d was not served" id)
    [ 4; 9 ];
  (match submit s (Protocol.request "fresh") with
  | Scheduler.Accepted info ->
      Alcotest.(check bool) "fresh id past the replayed ones" true
        (info.Scheduler.id > 9)
  | _ -> Alcotest.fail "fresh submit not accepted");
  Scheduler.with_registry s (fun m ->
      Alcotest.(check int) "replays counted" 2
        (Metrics.value (Metrics.counter m "serve.replayed")))

let test_scheduler_restore_floors_ids () =
  let compute (r : Protocol.request) = "payload:" ^ r.Protocol.workload in
  with_scheduler ~compute @@ fun s ->
  (* every pre-crash job completed, so nothing replays — but the
     journal's high-water mark must still floor fresh allocations, or a
     client polling a pre-crash id would be handed a new job's state *)
  Alcotest.(check int) "nothing to restore" 0
    (Scheduler.restore s ~next_id:42 []);
  match submit s (Protocol.request "fresh") with
  | Scheduler.Accepted info ->
      Alcotest.(check int) "fresh id starts at the journal high-water" 42
        info.Scheduler.id
  | _ -> Alcotest.fail "fresh submit not accepted"

(* --- client retry connection management -------------------------------- *)

let test_retry_connection_management () =
  (* A scripted server on a real Unix socket, counting accepted
     connections: a job-level Overloaded rejection must be retried on
     the SAME connection (the framing is intact, only the verdict was
     transient), while a transport cut must open a fresh one. *)
  let module Client = Mcd_serve.Client in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcd-retry-%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove socket with Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 8;
  let accepts = Atomic.make 0 in
  let payload = "the-bytes" in
  let send ?seq oc reply =
    output_string oc (Protocol.render_reply ?seq reply ^ "\n");
    flush oc
  in
  let greeting oc =
    send oc
      (Protocol.Ready { version = Protocol.version; workers = 1; queue_max = 8 })
  in
  (* Serve one connection to completion; with [reject_first] the first
     submit is shed Overloaded and the retry is expected on this same
     connection. *)
  let serve_full ic oc ~reject_first =
    let shed_already = ref (not reject_first) in
    let rec loop () =
      match input_line ic with
      | exception (End_of_file | Sys_error _) -> ()
      | line ->
          (match Protocol.parse_command line with
          | Ok (Protocol.Submit _, seq) ->
              if not !shed_already then begin
                shed_already := true;
                send ?seq oc
                  (Protocol.Rejected
                     (Protocol.Overloaded
                        { queue_depth = 8; limit = 8; retry_after_ms = 100 }))
              end
              else
                send ?seq oc
                  (Protocol.Queued_reply
                     { id = 1; digest = "d"; coalesced = false })
          | Ok (Protocol.Wait _, seq) ->
              send ?seq oc
                (Protocol.Status_reply { id = 1; state = Protocol.Done })
          | Ok (Protocol.Result _, seq) ->
              send ?seq oc
                (Protocol.Payload { id = 1; bytes = String.length payload });
              output_string oc payload;
              output_string oc "end\n";
              flush oc
          | Ok (Protocol.Quit, _) -> raise Exit
          | Ok _ | Error _ -> ());
          loop ()
    in
    try loop () with Exit -> ()
  in
  let accept_channels () =
    let fd, _ = Unix.accept listen_fd in
    Atomic.incr accepts;
    (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  in
  let server =
    Domain.spawn (fun () ->
        (* connection 1: shed the first submit, serve the retry *)
        let fd1, ic1, oc1 = accept_channels () in
        greeting oc1;
        serve_full ic1 oc1 ~reject_first:true;
        (try Unix.close fd1 with Unix.Unix_error (_, _, _) -> ());
        (* connection 2: die right after reading the submit *)
        let fd2, ic2, oc2 = accept_channels () in
        greeting oc2;
        (match input_line ic2 with
        | (_ : string) -> ()
        | exception (End_of_file | Sys_error _) -> ());
        (try Unix.close fd2 with Unix.Unix_error (_, _, _) -> ());
        (* connection 3: the reconnect — serve in full *)
        let fd3, ic3, oc3 = accept_channels () in
        greeting oc3;
        serve_full ic3 oc3 ~reject_first:false;
        try Unix.close fd3 with Unix.Unix_error (_, _, _) -> ())
  in
  let policy =
    {
      Client.max_attempts = 4;
      base_delay_ms = 1;
      max_delay_ms = 2;
      seed = Some 11;
      sleep = (fun _ -> ());
    }
  in
  let req = Protocol.request "adpcm decode" in
  (match Client.run_with_retry ~policy ~socket req with
  | Ok p -> Alcotest.(check string) "payload" payload p
  | Error e -> Alcotest.failf "retryable run failed: %s" (Error.to_string e));
  Alcotest.(check int) "job-level retry reused the connection" 1
    (Atomic.get accepts);
  (match Client.run_with_retry ~policy ~socket req with
  | Ok p -> Alcotest.(check string) "payload after reconnect" payload p
  | Error e -> Alcotest.failf "reconnect run failed: %s" (Error.to_string e));
  Alcotest.(check int) "transport cut forced exactly one reconnect" 3
    (Atomic.get accepts);
  Domain.join server;
  Unix.close listen_fd;
  try Sys.remove socket with Sys_error _ -> ()

(* --- client against a hostile peer --------------------------------------- *)

let peer_count = ref 0

(* A scripted peer on a real socket. It serves up to [conns] connections
   in turn (giving up after 10 s without one): each is greeted as
   protocol [version], then [answer oc ~seq cmd] replies to each command,
   echoing its seq as the real server does, and drops the connection by
   returning [false]. *)
let with_scripted_peer ?(version = Protocol.version) ~conns answer f =
  incr peer_count;
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcd-peer-%d-%d.sock" (Unix.getpid ()) !peer_count)
  in
  (try Sys.remove socket with Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 8;
  let serve_one () =
    let fd, _ = Unix.accept listen_fd in
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    (try
       output_string oc
         (Protocol.render_reply
            (Protocol.Ready { version; workers = 1; queue_max = 8 })
         ^ "\n");
       flush oc;
       let rec loop () =
         match Protocol.parse_command (input_line ic) with
         | Ok (cmd, seq) -> if answer oc ~seq cmd then loop ()
         | Error _ -> loop ()
       in
       loop ()
     with End_of_file | Sys_error _ -> ());
    try Unix.close fd with Unix.Unix_error (_, _, _) -> ()
  in
  let peer =
    Domain.spawn (fun () ->
        let rec go n =
          if
            n > 0
            && Mcd_serve.Evloop.wait_fd listen_fd ~read:true ~write:false
                 ~timeout_ms:10_000
               <> None
          then begin
            serve_one ();
            go (n - 1)
          end
        in
        go conns)
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join peer;
      Unix.close listen_fd;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () -> f socket)

(* Answers submit and wait like a server whose job is done, then sends
   [frame seq] as the result and hangs up. *)
let result_frame frame oc ~seq = function
  | Protocol.Submit _ ->
      output_string oc
        (Protocol.render_reply ?seq
           (Protocol.Queued_reply { id = 1; digest = "d"; coalesced = false })
        ^ "\n");
      flush oc;
      true
  | Protocol.Wait _ ->
      output_string oc
        (Protocol.render_reply ?seq
           (Protocol.Status_reply { id = 1; state = Protocol.Done })
        ^ "\n");
      flush oc;
      true
  | Protocol.Result _ ->
      output_string oc (frame seq);
      flush oc;
      false
  | _ -> true

(* The client's one frame decoder refuses a payload header before it
   allocates: a negative or over-cap byte count is a protocol violation,
   not a crash or a 64 MiB buffer; a peer that hangs up mid-body is a
   transport failure; a greeting of another protocol version is refused
   by both connect paths. *)
let test_client_refuses_hostile_frames () =
  let module Client = Mcd_serve.Client in
  let run_against frame =
    with_scripted_peer ~conns:1 (result_frame frame) @@ fun socket ->
    match Client.connect ~socket with
    | Error e -> Alcotest.failf "connect: %s" (Error.to_string e)
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> Client.run c (Protocol.request "adpcm decode"))
  in
  let payload_header bytes seq =
    Protocol.render_reply ?seq (Protocol.Payload { id = 1; bytes }) ^ "\n"
  in
  let expect what want = function
    | Error e when want e -> ()
    | Error e -> Alcotest.failf "%s: got %s" what (Error.to_string e)
    | Ok _ -> Alcotest.failf "%s: got a payload" what
  in
  let violation = function Error.Protocol_violation _ -> true | _ -> false in
  expect "bytes=-1" violation (run_against (payload_header (-1)));
  expect "bytes one over the cap" violation
    (run_against (payload_header (Protocol.Frames.default_max_payload + 1)));
  expect "hang-up mid-payload"
    (function Error.Server_unavailable _ -> true | _ -> false)
    (run_against (fun seq -> payload_header 10 seq ^ "abc"));
  with_scripted_peer ~version:2 ~conns:2 (fun _ ~seq:_ _ -> false)
  @@ fun socket ->
  (match Client.connect ~socket with
  | Error (Error.Protocol_violation _) -> ()
  | Error e ->
      Alcotest.failf "Client.connect to mcd-serve/2: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "Client.connect accepted mcd-serve/2");
  match Client.Pipeline.connect ~socket () with
  | Error (Error.Protocol_violation _) -> ()
  | Error e ->
      Alcotest.failf "Pipeline.connect to mcd-serve/2: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "Pipeline.connect accepted mcd-serve/2"

(* --- command framing on a live server ----------------------------------- *)

(* [f socket] against a real daemon, spawned through the CLI (a test
   process that has run domains cannot fork), drained (or, failing that,
   killed) and reaped afterwards. *)
let with_daemon f =
  let module Client = Mcd_serve.Client in
  incr peer_count;
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcd-frame-%d-%d.sock" (Unix.getpid ()) !peer_count)
  in
  let pid =
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close devnull) @@ fun () ->
    Unix.create_process Helpers.cli_exe
      [|
        Helpers.cli_exe; "serve"; "--socket"; socket; "--workers"; "1";
        "--no-journal";
      |]
      devnull devnull devnull
  in
  let rec ready tries =
    match Client.connect ~socket with
    | Ok c -> Client.close c
    | Error e ->
        if tries = 0 then
          Alcotest.failf "daemon never came up: %s" (Error.to_string e);
        Unix.sleepf 0.02;
        ready (tries - 1)
  in
  Fun.protect
    ~finally:(fun () ->
      (match Client.connect ~socket with
      | Ok c ->
          ignore (Client.drain c);
          Client.close c
      | Error _ -> Unix.kill pid Sys.sigkill);
      ignore (Unix.waitpid [] pid))
    (fun () ->
      ready 500;
      f socket)

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (fd, Protocol.Frames.create ())

(* The next reply frame, [None] once the server has closed the
   connection; fails after 10 s of silence. *)
let next_frame (fd, frames) =
  let buf = Bytes.create 65536 in
  let rec go () =
    match Protocol.Frames.next frames with
    | `Frame f -> Some f
    | `Error e -> Alcotest.failf "reply framing: %s" e
    | `Await -> (
        if
          Mcd_serve.Evloop.wait_fd fd ~read:true ~write:false
            ~timeout_ms:10_000
          = None
        then Alcotest.fail "no reply within 10 s";
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> None
        | n ->
            Protocol.Frames.feed frames (Bytes.sub_string buf 0 n);
            go ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None)
  in
  go ()

let expect_pong conn i =
  match next_frame conn with
  | Some { Protocol.Frames.reply = Protocol.Pong; seq = Some s; _ } when s = i
    ->
      ()
  | Some { Protocol.Frames.reply; seq; _ } ->
      Alcotest.failf "command %d answered %s (seq %s)" i
        (Protocol.render_reply reply)
        (Option.fold ~none:"none" ~some:string_of_int seq)
  | None -> Alcotest.failf "connection closed before command %d" i

let expect_greeting conn =
  match next_frame conn with
  | Some { Protocol.Frames.reply = Protocol.Ready _; _ } -> ()
  | _ -> Alcotest.fail "no greeting"

(* One write carrying thousands of pipelined commands, cut mid-line, is
   answered command by command in order, the cut one once its line
   completes; a partial line past the server's 64 KiB cap is refused and
   closes its own connection only. *)
let test_server_framing () =
  with_daemon @@ fun socket ->
  let n = 3000 in
  let conn = raw_connect socket in
  let fd = fst conn in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  expect_greeting conn;
  let last = Protocol.render_command ~seq:(n + 1) Protocol.Ping ^ "\n" in
  let cut = String.length last / 2 in
  let batch =
    String.concat ""
      (List.init n (fun i ->
           Protocol.render_command ~seq:(i + 1) Protocol.Ping ^ "\n"))
    ^ String.sub last 0 cut
  in
  ignore (Unix.write_substring fd batch 0 (String.length batch));
  for i = 1 to n do
    expect_pong conn i
  done;
  Alcotest.(check bool)
    "the cut command waits for its newline" true
    (Protocol.Frames.buffered (snd conn) = 0
    && Mcd_serve.Evloop.wait_fd fd ~read:true ~write:false ~timeout_ms:50
       = None);
  ignore
    (Unix.write_substring fd last cut (String.length last - cut));
  expect_pong conn (n + 1);
  let bystander = raw_connect socket in
  let long = raw_connect socket in
  Fun.protect
    ~finally:(fun () ->
      Unix.close (fst bystander);
      Unix.close (fst long))
  @@ fun () ->
  expect_greeting bystander;
  expect_greeting long;
  let flood = String.make ((64 * 1024) + 1024) 'x' in
  ignore (Unix.write_substring (fst long) flood 0 (String.length flood));
  (match next_frame long with
  | Some
      {
        Protocol.Frames.reply =
          Protocol.Rejected (Protocol.Bad_request "command line too long");
        _;
      } ->
      ()
  | Some { Protocol.Frames.reply; _ } ->
      Alcotest.failf "over-long line answered %s" (Protocol.render_reply reply)
  | None -> Alcotest.fail "over-long line closed without a refusal");
  Alcotest.(check bool)
    "the over-long line's connection closes" true
    (next_frame long = None);
  let ping = Protocol.render_command ~seq:1 Protocol.Ping ^ "\n" in
  ignore (Unix.write_substring (fst bystander) ping 0 (String.length ping));
  expect_pong bystander 1

let suite =
  [
    ("protocol command roundtrip", `Quick, test_command_roundtrip);
    ("protocol reply roundtrip", `Quick, test_reply_roundtrip);
    ("protocol rejects garbage", `Quick, test_parse_rejects_garbage);
    ("protocol seq roundtrip", `Quick, test_seq_roundtrip);
    qcheck prop_frames_roundtrip;
    ("frames oversized rejected", `Quick, test_frames_oversized_rejected);
    ("request digests normalize", `Quick, test_request_normalization_digests);
    ("served and run keys pinned", `Quick, test_served_keys_pinned);
    ( "served keys pinned across domains",
      `Quick,
      test_served_keys_pinned_across_domains );
    ("reject exit codes", `Quick, test_error_of_reject_exit_codes);
    ("jobq priority fifo", `Quick, test_jobq_priority_fifo);
    ("jobq bounds", `Quick, test_jobq_bounds);
    ("jobq level clamped", `Quick, test_jobq_level_clamped);
    ("jobq rejects bad bounds", `Quick, test_jobq_rejects_bad_bounds);
    ("jobq force bypasses bounds", `Quick, test_jobq_force_bypasses_bounds);
    ( "jobq fairness under pipelining",
      `Quick,
      test_jobq_fairness_under_pipelining );
    ("journal entry roundtrip", `Quick, test_journal_entry_roundtrip);
    ( "journal recovery and compaction",
      `Quick,
      test_journal_recovery_and_compaction );
    ("journal torn tail dropped", `Quick, test_journal_torn_tail_dropped);
    ( "journal mid-file corruption typed",
      `Quick,
      test_journal_midfile_corruption_typed );
    ("scheduler runs and coalesces", `Quick, test_scheduler_runs_and_coalesces);
    ("scheduler backpressure", `Quick, test_scheduler_backpressure);
    ("scheduler drain rejects", `Quick, test_scheduler_drain_rejects);
    ("scheduler fault isolation", `Quick, test_scheduler_fault_isolation);
    ("scheduler deadline watchdog", `Quick, test_scheduler_deadline_watchdog);
    ("scheduler retry-after cap", `Quick, test_scheduler_retry_after_cap);
    ("scheduler restore replays", `Quick, test_scheduler_restore_replays);
    ("scheduler restore floors ids", `Quick, test_scheduler_restore_floors_ids);
    ( "retry reuses connection, reconnects on cut",
      `Quick,
      test_retry_connection_management );
    ( "client refuses hostile frames",
      `Quick,
      test_client_refuses_hostile_frames );
    ("server framing is linear and capped", `Quick, test_server_framing);
  ]
