(* Open-loop load generator for the experiment daemon.

   Drives a forked server (canned compute with a configurable service
   time, so the bench measures the serving plane — event loop, framing,
   admission, journal — not simulation speed; byte-identity with real
   Runner results is serve_smoke's job) through four scenarios:

   - warm open loop: every arrival is one of the quick-suite requests
     verbatim, so all but the first few coalesce onto finished jobs —
     the store-hit/coalesced regime;
   - cold open loop: every arrival carries a unique slowdown, so every
     admitted job is a fresh compute — the cache-miss regime with a
     journal fsync per job;
   - saturated open loop: cold arrivals at a rate far above the canned
     service capacity, so admission control must shed — records the
     rejection rate and the server's retry-after hints next to the
     observed latency they are supposed to predict;
   - closed-loop comparison: at equal concurrency, requests/s through
     one pipelined connection (seq-tagged commands, many in flight)
     versus one-shot exchanges (fresh connect + greeting + sequential
     submit/wait/result per request) — the pipelining multiple.

   Open loop means arrivals follow the seeded exponential schedule
   regardless of completions: a slow server grows the in-flight count
   instead of silently slowing the offered load, which is what makes
   the percentiles honest under load.

   --json writes a mcd-dvfs-serve-bench/1 artifact (promoted as
   BENCH_serve.json under @verify). --smoke runs a seeded, low-rate
   preset and exits nonzero unless p99 stays under a generous bound,
   nothing is lost (every issued request gets a typed answer), and the
   pipelined closed loop beats one-shot by at least 3x. *)

module Server = Mcd_serve.Server
module Pipeline = Mcd_serve.Client.Pipeline
module Protocol = Mcd_serve.Protocol
module Error = Mcd_robust.Error
module Rng = Mcd_util.Rng
module Time = Mcd_util.Time
open Harness

(* Canned compute with a configurable service time. The canned digest is
   unique per (workload, slowdown) spelling: warm traffic repeats one
   spelling per workload and coalesces; cold traffic varies the
   slowdown and never does. *)
let canned_compute ~service_ms r =
  if service_ms > 0.0 then Unix.sleepf (service_ms /. 1000.0);
  canned_payload r

(* --- request mixes ------------------------------------------------------ *)

let quick_names = [| "adpcm decode"; "gsm encode"; "mpeg2 decode"; "mcf"; "applu" |]

let warm_request i =
  Protocol.request quick_names.(i mod Array.length quick_names)

let cold_request i =
  Protocol.request
    ~slowdown_pct:(7.0 +. (0.001 *. float_of_int i))
    quick_names.(i mod Array.length quick_names)

(* --- percentiles -------------------------------------------------------- *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1 |> max 0))

(* --- open-loop scenario -------------------------------------------------- *)

type open_result = {
  sent : int;
  completed : int;
  rejected : int;  (** typed sheds: Overloaded/Draining *)
  retried : int;  (** re-issues after an Overloaded shed *)
  lost : int;  (** issued but never answered, or transport failure *)
  other_errors : int;
  duration_s : float;
  latencies_ms : float array;  (** sorted, completions only *)
  max_in_flight : int;
  hint_count : int;
  hint_sum_ms : int;
  hint_max_ms : int;
}

(* One logical arrival; retried at most [max_retries] times after an
   Overloaded shed, honoring the server's retry-after hint. *)
type arrival = { mutable retries_left : int; issue_at : float; req : Protocol.request }

let open_loop ~socket ~rate ~duration_s ~conns ~seed ~request_of ~max_retries () =
  let rng = Rng.create seed in
  let pipes =
    List.init conns (fun _ ->
        match Pipeline.connect ~socket () with
        | Ok p -> p
        | Error e ->
            check false "open_loop connect: %s" (Error.to_string e);
            exit 1)
  in
  let pipes = Array.of_list pipes in
  let started = Time.now_s () in
  let horizon = started +. duration_s in
  let sent = ref 0
  and completed = ref 0
  and rejected = ref 0
  and retried = ref 0
  and other_errors = ref 0
  and in_flight = ref 0
  and max_in_flight = ref 0
  and latencies = ref []
  and hint_count = ref 0
  and hint_sum = ref 0
  and hint_max = ref 0 in
  let due : arrival list ref = ref [] in
  let next_pipe = ref 0 in
  let rec issue (a : arrival) =
    let p = pipes.(!next_pipe mod Array.length pipes) in
    incr next_pipe;
    incr sent;
    incr in_flight;
    if !in_flight > !max_in_flight then max_in_flight := !in_flight;
    let t_issue = Time.now_s () in
    Pipeline.run p a.req ~k:(fun outcome ->
        decr in_flight;
        match outcome with
        | Ok _payload ->
            incr completed;
            latencies :=
              ((Time.now_s () -. t_issue) *. 1000.0) :: !latencies
        | Error (Error.Overloaded { retry_after_ms; _ }) ->
            incr rejected;
            incr hint_count;
            hint_sum := !hint_sum + retry_after_ms;
            if retry_after_ms > !hint_max then hint_max := retry_after_ms;
            if a.retries_left > 0 then begin
              a.retries_left <- a.retries_left - 1;
              incr retried;
              due :=
                {
                  a with
                  issue_at =
                    Time.now_s ()
                    +. (float_of_int retry_after_ms /. 1000.0);
                }
                :: !due
            end
        | Error (Error.Draining _) -> incr rejected
        | Error _ -> incr other_errors)
  and pump_all timeout_ms =
    Array.iter
      (fun p ->
        match Pipeline.pump ~timeout_ms p with
        | Ok () -> ()
        | Error _ -> (* callbacks already failed; counted as other_errors *) ())
      pipes;
    (* re-issue retries that have reached their backoff time *)
    let now = Time.now_s () in
    let ready, waiting = List.partition (fun a -> a.issue_at <= now) !due in
    due := waiting;
    List.iter issue ready
  in
  (* the arrival schedule: exponential inter-arrivals at [rate] *)
  let next_arrival = ref started in
  let arrivals = ref 0 in
  let schedule_next () =
    let u = Rng.float rng 1.0 in
    next_arrival := !next_arrival +. (-.Float.log (1.0 -. u) /. rate)
  in
  while Time.now_s () < horizon do
    let now = Time.now_s () in
    while !next_arrival <= now && !next_arrival < horizon do
      issue { retries_left = max_retries; issue_at = now; req = request_of !arrivals };
      incr arrivals;
      schedule_next ()
    done;
    pump_all 1
  done;
  (* drain: open loop stops offering, everything issued must resolve *)
  let drain_deadline = Time.now_s () +. 30.0 in
  while (!in_flight > 0 || !due <> []) && Time.now_s () < drain_deadline do
    pump_all 5
  done;
  let duration = Time.now_s () -. started in
  Array.iter Pipeline.close pipes;
  let lost = !in_flight + List.length !due in
  let latencies_ms = Array.of_list !latencies in
  Array.sort compare latencies_ms;
  {
    sent = !sent;
    completed = !completed;
    rejected = !rejected;
    retried = !retried;
    lost;
    other_errors = !other_errors;
    duration_s = duration;
    latencies_ms;
    max_in_flight = !max_in_flight;
    hint_count = !hint_count;
    hint_sum_ms = !hint_sum;
    hint_max_ms = !hint_max;
  }

(* --- closed-loop comparison ---------------------------------------------- *)

(* Equal concurrency, two shapes. Pipelined: one connection, [conc]
   requests in flight, a completion immediately issues the next.
   One-shot: [conc] slots, each slot pays a fresh connect + greeting
   and walks one blocking-shaped submit/wait/result exchange per
   request (over the same non-blocking machinery, so both sides are
   driven by the same pump loop). *)
let closed_pipelined ~socket ~conc ~duration_s =
  match Pipeline.connect ~socket () with
  | Error e ->
      check false "closed_pipelined connect: %s" (Error.to_string e);
      0
  | Ok p ->
      let completed = ref 0 in
      let horizon = Time.now_s () +. duration_s in
      let n = ref 0 in
      let rec issue () =
        incr n;
        Pipeline.run p (warm_request !n) ~k:(fun _ ->
            incr completed;
            if Time.now_s () < horizon then issue ())
      in
      for _ = 1 to conc do
        issue ()
      done;
      while Pipeline.in_flight p > 0 && Time.now_s () < horizon +. 10.0 do
        (match Pipeline.pump ~timeout_ms:5 p with Ok () -> () | Error _ -> ())
      done;
      Pipeline.close p;
      !completed

let closed_oneshot ~socket ~conc ~duration_s =
  let completed = ref 0 in
  let horizon = Time.now_s () +. duration_s in
  let n = ref 0 in
  (* a slot is None between requests (about to reconnect) *)
  let slots = Array.make conc None in
  let live = ref 0 in
  let start_slot i =
    if Time.now_s () < horizon then begin
      match Pipeline.connect ~socket () with
      | Error e -> check false "closed_oneshot connect: %s" (Error.to_string e)
      | Ok p ->
          incr n;
          incr live;
          slots.(i) <- Some p;
          Pipeline.run p (warm_request !n) ~k:(fun _ ->
              incr completed;
              slots.(i) <- None;
              decr live;
              Pipeline.close p)
    end
  in
  for i = 0 to conc - 1 do
    start_slot i
  done;
  let hard_stop = horizon +. 10.0 in
  let rec spin () =
    let now = Time.now_s () in
    if now < hard_stop && (!live > 0 || now < horizon) then begin
      Array.iteri
        (fun i slot ->
          match slot with
          | Some p -> (
              match Pipeline.pump ~timeout_ms:1 p with
              | Ok () -> ()
              | Error _ ->
                  slots.(i) <- None;
                  decr live;
                  Pipeline.close p)
          | None -> start_slot i)
        slots;
      spin ()
    end
  in
  spin ();
  Array.iter (function Some p -> Pipeline.close p | None -> ()) slots;
  !completed

(* --- JSON ---------------------------------------------------------------- *)

type scenario = {
  name : string;
  fields : (string * string) list;  (** key, rendered JSON value *)
}

let jf = Printf.sprintf "%.3f"

let open_scenario name ~rate ~conns (r : open_result) =
  let p q = percentile r.latencies_ms q in
  {
    name;
    fields =
      [
        ("mode", {|"open-loop"|});
        ("rate_per_s", jf rate);
        ("conns", string_of_int conns);
        ("sent", string_of_int r.sent);
        ("completed", string_of_int r.completed);
        ("rejected", string_of_int r.rejected);
        ("retried", string_of_int r.retried);
        ("lost", string_of_int r.lost);
        ("other_errors", string_of_int r.other_errors);
        ("duration_s", jf r.duration_s);
        ("throughput_per_s", jf (float_of_int r.completed /. r.duration_s));
        ("latency_p50_ms", jf (percentile r.latencies_ms 0.50));
        ("latency_p95_ms", jf (p 0.95));
        ("latency_p99_ms", jf (p 0.99));
        ( "latency_max_ms",
          jf
            (if Array.length r.latencies_ms = 0 then nan
             else r.latencies_ms.(Array.length r.latencies_ms - 1)) );
        ("max_in_flight", string_of_int r.max_in_flight);
        ( "retry_hint_mean_ms",
          jf
            (if r.hint_count = 0 then 0.0
             else float_of_int r.hint_sum_ms /. float_of_int r.hint_count) );
        ("retry_hint_max_ms", string_of_int r.hint_max_ms);
      ];
  }

let write_json path ~seed ~service_ms scenarios =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"mcd-dvfs-serve-bench/1\",\n";
  Printf.fprintf oc "  \"seed\": %d,\n" seed;
  Printf.fprintf oc "  \"service_ms\": %s,\n" (jf service_ms);
  Printf.fprintf oc "  \"scenarios\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "    {\n      \"name\": %S" s.name;
      List.iter
        (fun (k, v) -> Printf.fprintf oc ",\n      \"%s\": %s" k v)
        s.fields;
      Printf.fprintf oc "\n    }%s\n"
        (if i < List.length scenarios - 1 then "," else ""))
    scenarios;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

(* --- main ---------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: serve_load [--smoke] [--json FILE] [--seed N] [--rate R]\n\
    \       [--duration S] [--conns N] [--conc N] [--service-ms F]";
  exit 2

let () =
  let smoke = ref false
  and json = ref None
  and seed = ref 42
  and rate = ref 150.0
  and duration = ref 3.0
  and conns = ref 4
  and conc = ref 8
  and service_ms = ref 5.0 in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--rate" :: v :: rest ->
        rate := float_of_string v;
        parse rest
    | "--duration" :: v :: rest ->
        duration := float_of_string v;
        parse rest
    | "--conns" :: v :: rest ->
        conns := int_of_string v;
        parse rest
    | "--conc" :: v :: rest ->
        conc := int_of_string v;
        parse rest
    | "--service-ms" :: v :: rest ->
        service_ms := float_of_string v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !smoke then begin
    (* bounded CI preset: low rate, short run, fixed seed *)
    rate := 80.0;
    duration := 1.5;
    conns := 4;
    conc := 16;
    service_ms := 2.0
  end;
  (with_temp_dir "mcd-serve-load" @@ fun tmp ->
  Mcd_cache.Store.set_default None;
  let socket = Filename.concat tmp "serve.sock" in
  let journal = Filename.concat tmp "serve.journal" in
  let cfg =
    {
      (Server.default_config ~socket) with
      workers = 2;
      queue_max = 64;
      client_max = 256;
      journal = Some journal;
      drain_grace_s = 0.2;
    }
  in
  let server =
    fork_server ~digest:canned_digest
      ~compute:(canned_compute ~service_ms:!service_ms)
      cfg
  in
  if not (wait_for_server socket) then begin
    Printf.eprintf "serve_load: server never came up\n%!";
    exit 1
  end;
  (* warm: the repeating quick-suite mix — everything after the first
     few arrivals coalesces onto a finished job *)
  let warm =
    open_loop ~socket ~rate:!rate ~duration_s:!duration ~conns:!conns
      ~seed:!seed ~request_of:warm_request ~max_retries:2 ()
  in
  (* cold: unique slowdown per arrival — every admitted job computes,
     and the journal takes one fsync per admit. Offered at a rate the
     canned service can sustain (2 workers / service_ms each). *)
  let sustainable =
    if !service_ms <= 0.0 then !rate
    else Float.min !rate (0.5 *. 2.0 *. 1000.0 /. !service_ms)
  in
  let cold =
    open_loop ~socket ~rate:sustainable ~duration_s:!duration ~conns:!conns
      ~seed:(!seed + 1) ~request_of:cold_request ~max_retries:2 ()
  in
  (* saturated: cold traffic far above capacity — admission control
     must shed with retry-after hints, and nothing may be lost *)
  let sat_rate =
    if !service_ms <= 0.0 then 4.0 *. !rate
    else 4.0 *. 2.0 *. 1000.0 /. !service_ms
  in
  let saturated =
    open_loop ~socket ~rate:sat_rate ~duration_s:(Float.min !duration 2.0)
      ~conns:!conns ~seed:(!seed + 2)
      ~request_of:(fun i -> cold_request (1_000_000 + i))
      ~max_retries:0 ()
  in
  (* closed-loop comparison at equal concurrency *)
  let cmp_duration = Float.min !duration 3.0 in
  let oneshot_n = closed_oneshot ~socket ~conc:!conc ~duration_s:cmp_duration in
  let pipelined_n =
    closed_pipelined ~socket ~conc:!conc ~duration_s:cmp_duration
  in
  drain_and_reap ~what:"load server" socket server;
  let oneshot_rate = float_of_int oneshot_n /. cmp_duration in
  let pipelined_rate = float_of_int pipelined_n /. cmp_duration in
  let speedup =
    if oneshot_n = 0 then nan else pipelined_rate /. oneshot_rate
  in
  let scenarios =
    [
      open_scenario "warm-open-loop" ~rate:!rate ~conns:!conns warm;
      open_scenario "cold-open-loop" ~rate:sustainable ~conns:!conns cold;
      open_scenario "saturated-open-loop" ~rate:sat_rate ~conns:!conns
        saturated;
      {
        name = "closed-loop-comparison";
        fields =
          [
            ("mode", {|"closed-loop"|});
            ("concurrency", string_of_int !conc);
            ("duration_s", jf cmp_duration);
            ("oneshot_completed", string_of_int oneshot_n);
            ("pipelined_completed", string_of_int pipelined_n);
            ("oneshot_per_s", jf oneshot_rate);
            ("pipelined_per_s", jf pipelined_rate);
            ("pipelined_speedup", jf speedup);
          ];
      };
    ]
  in
  (match !json with
  | Some path -> write_json path ~seed:!seed ~service_ms:!service_ms scenarios
  | None -> ());
  (* structural checks, every mode *)
  check (warm.completed > 0) "warm scenario completed nothing";
  check (cold.completed > 0) "cold scenario completed nothing";
  check (warm.lost = 0) "warm: %d issued requests never answered" warm.lost;
  check (cold.lost = 0) "cold: %d issued requests never answered" cold.lost;
  check (saturated.lost = 0) "saturated: %d issued requests never answered"
    saturated.lost;
  check
    (saturated.rejected = 0 || saturated.hint_max_ms >= 100)
    "saturated: rejections carried hint below the 100ms floor (max %d)"
    saturated.hint_max_ms;
  if !smoke then begin
    (* the CI gate: bounded tail latency, zero losses, real pipelining *)
    let p99 = percentile warm.latencies_ms 0.99 in
    check (p99 < 2000.0) "warm p99=%.1fms, want < 2000ms" p99;
    check
      (warm.other_errors = 0 && cold.other_errors = 0)
      "unexpected errors (warm %d, cold %d)" warm.other_errors
      cold.other_errors;
    check (oneshot_n > 0) "one-shot closed loop completed nothing";
    check
      ((not (Float.is_nan speedup)) && speedup >= 3.0)
      "pipelined/one-shot speedup %.2fx, want >= 3x" speedup
  end;
  Printf.printf
    "serve_load: warm %.0f/s p99=%.1fms | cold %.0f/s p99=%.1fms | saturated \
     shed %d/%d | pipelined %.2fx one-shot\n"
    (float_of_int warm.completed /. warm.duration_s)
    (percentile warm.latencies_ms 0.99)
    (float_of_int cold.completed /. cold.duration_s)
    (percentile cold.latencies_ms 0.99)
    saturated.rejected saturated.sent speedup);
  finish ()
