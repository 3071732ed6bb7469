(* serve-warm: the real [Server.run], forked on a store that set-up
   filled with real runs of cheap programs, driven by one generator
   process over at most [nproc] pipelined connections. No simulation
   runs on the timed path: every request resolves to a stored run, so
   the timed phase measures framing, the event loop, the scheduler and
   coalescing, key derivation and store reads. *)

module Server = Mcd_serve.Server
module Client = Mcd_serve.Client
module Pipeline = Mcd_serve.Client.Pipeline
module Protocol = Mcd_serve.Protocol
module Evloop = Mcd_serve.Evloop
module Runner = Mcd_experiments.Runner
module Cstore = Mcd_cache.Store
module Rng = Mcd_util.Rng
module Json = Mcd_obs.Json

(* Four stored runs, each asked for under four spellings that
   [Runner.request_key] normalizes to the same key (baseline and
   on-line ignore slowdown and context), so key derivation and
   coalescing see distinct requests with shared identities. *)
let universe =
  List.concat_map
    (fun program ->
      List.concat_map
        (fun policy ->
          List.map
            (fun (slowdown_pct, context) ->
              Protocol.request ~policy ~context ~slowdown_pct program)
            [ (7.0, "L+F"); (5.0, "L+F"); (9.0, "L+F"); (7.0, "F") ])
        [ Protocol.Baseline; Protocol.Online ])
    [ "adpcm decode"; "adpcm encode" ]
  |> Array.of_list

let socket = "serve.sock"
(* The open loop runs for [open_loop_share] of --seconds at this rate;
   its percentiles are the medians over 1-second windows of each
   window's percentile (1000 requests a window, so 10 beyond its p99),
   which keeps a few host stalls from setting the tail of a whole run. *)
let open_loop_rate = 1000.0
let open_loop_share = 0.2
let window_s = 1.0

(* How long before a due time the generator stops blocking. *)
let spin_s = 0.0003

(* The closed loop keeps [closed_window] requests in flight per
   connection until [closed_requests] have completed (9 s to 25 s on a
   2-vCPU host). Its throughput is counted against the server's CPU
   time, not the wall clock: on a 2-vCPU VM the wall rate is set by
   whether the guest scheduler runs the generator on the server's vCPU
   or on the other one (about 12.6k against 18k req/s, in runs whose
   server CPU per request was 50-52 us either way). *)
let closed_requests = 250_000
let closed_window = 32

let spelling (r : Protocol.request) =
  Printf.sprintf "%s|%s|%s|%h" r.Protocol.workload
    (Protocol.policy_name r.Protocol.policy)
    r.Protocol.context r.Protocol.slowdown_pct

(* Skewed repeats: request [i] of the universe with weight 1/(i+1). *)
let skewed rng =
  let n = Array.length universe in
  let weights = Array.init n (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  fun () ->
    let u = Rng.float rng total in
    let rec pick i acc =
      if i = n - 1 then i
      else
        let acc = acc +. weights.(i) in
        if u < acc then i else pick (i + 1) acc
    in
    pick 0 0.0

(* --- the server ------------------------------------------------------ *)

let server_config () =
  {
    (Server.default_config ~socket) with
    Server.workers = 1;
    (* the journal's fsync per admitted job measures the disk *)
    journal = None;
    drain_grace_s = 0.05;
  }

(* The default digest and compute, wrapped in spans that carry the
   request's digest as their id. *)
let digest req =
  let start_ns = Span.now_ns () in
  let d = Server.request_digest req in
  (match d with
  | Ok id -> Span.record ~id "serve.digest" ~start_ns
  | Error _ -> ());
  d

let compute req =
  if not !Span.enabled then Server.compute req
  else
    let id = match Server.request_digest req with Ok d -> d | Error _ -> "" in
    Span.with_ ~id "serve.compute" (fun () -> Server.compute req)

let stats_json (s : Cstore.stats) =
  Json.Obj
    [
      ("hits", Json.Int s.Cstore.hits);
      ("misses", Json.Int s.Cstore.misses);
      ("bytes_read", Json.Int s.Cstore.bytes_read);
      ("bytes_written", Json.Int s.Cstore.bytes_written);
    ]

let fork_server ~store =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Span.reset ();
      let before = Cstore.stats store in
      let code =
        match Server.run ~digest ~compute (server_config ()) with
        | Ok () -> 0
        | Error e ->
            prerr_endline ("perfbench server: " ^ Mcd_robust.Error.to_string e);
            1
      in
      let after = Cstore.stats store in
      let delta =
        {
          after with
          Cstore.hits = after.Cstore.hits - before.Cstore.hits;
          misses = after.Cstore.misses - before.Cstore.misses;
          bytes_read = after.Cstore.bytes_read - before.Cstore.bytes_read;
          bytes_written = after.Cstore.bytes_written - before.Cstore.bytes_written;
        }
      in
      Textfile.write "." "server-stats.json" (Json.to_string (stats_json delta));
      if !Span.enabled then
        Textfile.write "." "server-spans.jsonl" (Span.to_jsonl (Span.spans ()));
      Unix._exit code
  | pid -> pid

let wait_ready () =
  let deadline = Span.now_s () +. 30.0 in
  let rec go () =
    match Client.connect ~socket with
    | Ok c ->
        Client.close c;
        true
    | Error _ ->
        if Span.now_s () > deadline then false
        else begin
          Unix.sleepf 0.002;
          go ()
        end
  in
  go ()

let stop_server pid =
  (match Client.connect ~socket with
  | Ok c ->
      ignore (Client.drain c);
      Client.close c
  | Error _ -> ());
  let deadline = Span.now_s () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Span.now_s () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          false
        end
        else begin
          Unix.sleepf 0.01;
          reap ()
        end
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  reap ()

(* --- the generator ---------------------------------------------------- *)

type traffic = {
  pipes : Pipeline.t array;
  ids : string array;
      (** each universe request's digest, the id of its traced spans *)
  mutable in_flight : int;
  mutable next_pipe : int;
  mutable issued : int;
  served : (int, string) Hashtbl.t;
      (** issue sequence -> payload digest, for the outputs *)
}

let connect conns =
  {
    pipes =
      Array.init conns (fun _ ->
          match Pipeline.connect ~socket () with
          | Ok p -> p
          | Error e -> failwith ("connect: " ^ Mcd_robust.Error.to_string e));
    ids =
      Array.map
        (fun req -> match Server.request_digest req with Ok d -> d | Error _ -> "")
        universe;
    in_flight = 0;
    next_pipe = 0;
    issued = 0;
    served = Hashtbl.create 4096;
  }

(* Wait once on every connection, then pump only the ready ones. *)
let pump_ready t ~timeout_ms =
  let interests =
    Array.to_list
      (Array.map
         (fun p ->
           { Evloop.fd = Pipeline.fd p; read = true; write = Pipeline.has_output p })
         t.pipes)
  in
  let ready = Evloop.wait interests ~timeout_ms in
  Array.iter
    (fun p ->
      let fd = Pipeline.fd p in
      if List.exists (fun (e : Evloop.event) -> e.Evloop.fd = fd) ready then
        ignore (Pipeline.pump p))
    t.pipes

(* Issue request [i] on the next connection; [k] gets the outcome. *)
let issue (r : Measure.t) t ~expected i ~k =
  let p = t.pipes.(t.next_pipe mod Array.length t.pipes) in
  t.next_pipe <- t.next_pipe + 1;
  t.in_flight <- t.in_flight + 1;
  r.attempted <- r.attempted + 1;
  let req = universe.(i) in
  let seq = t.issued in
  t.issued <- seq + 1;
  let start_ns = Span.now_ns () in
  Pipeline.run p req ~k:(fun outcome ->
      t.in_flight <- t.in_flight - 1;
      Span.record ~id:t.ids.(i) "client.request" ~start_ns;
      match outcome with
      | Ok payload when payload = expected.(i) ->
          Hashtbl.replace t.served seq (Digest.to_hex (Digest.string payload));
          k true
      | Ok _ ->
          Measure.fail r "request %s: payload differs from set-up's" (spelling req);
          k false
      | Error (Mcd_robust.Error.Overloaded _ | Mcd_robust.Error.Draining _) ->
          Span.count "serve.rejected" 1.0;
          Measure.fail r "request %s refused" (spelling req);
          k false
      | Error e ->
          Measure.fail r "request %s: %s" (spelling req) (Mcd_robust.Error.to_string e);
          k false);
  ignore (Pipeline.pump p)

(* Seeded Poisson arrivals at [open_loop_rate]; each request is timed
   from when it was due, so a stall is charged to every request it
   delays. Returns each request's due offset, latency (failed =
   infinity) and lateness. *)
let open_loop (r : Measure.t) t ~expected ~rng ~duration_s =
  let pick = skewed rng in
  let arrivals = ref [] and at = ref 0.0 in
  while !at < duration_s do
    at := !at -. (Float.log (1.0 -. Rng.float rng 1.0) /. open_loop_rate);
    if !at < duration_s then arrivals := (!at, pick ()) :: !arrivals
  done;
  let arrivals = Array.of_list (List.rev !arrivals) in
  let n = Array.length arrivals in
  let latencies = Array.make n infinity and late = Array.make n 0.0 in
  let start = Span.now_s () in
  let next = ref 0 in
  let deadline = start +. duration_s +. 30.0 in
  while (!next < n || t.in_flight > 0) && Span.now_s () < deadline do
    let now = Span.now_s () in
    while !next < n && start +. fst arrivals.(!next) <= now do
      let j = !next in
      let due = start +. fst arrivals.(j) in
      late.(j) <- (now -. due) *. 1000.0;
      issue r t ~expected (snd arrivals.(j)) ~k:(fun ok ->
          if ok then latencies.(j) <- (Span.now_s () -. due) *. 1000.0);
      incr next
    done;
    (* the generator blocks (sleeping, or waiting on its connections
       when requests are in flight) until [spin_s] before the next due
       time and polls without blocking from there, so the host timer's
       wake-up overshoot is not charged to the server *)
    let remaining =
      if !next < n then start +. fst arrivals.(!next) -. Span.now_s () else 0.01
    in
    if remaining > spin_s then begin
      let block = remaining -. spin_s in
      if t.in_flight = 0 then Unix.sleepf block
      else pump_ready t ~timeout_ms:(int_of_float (block *. 1000.0))
    end
    else if t.in_flight > 0 then pump_ready t ~timeout_ms:0
  done;
  (Array.map fst arrivals, latencies, late)

(* The closed loop; returns the requests completed. *)
let closed_loop (r : Measure.t) t ~expected ~rng =
  let pick = skewed rng in
  let issued = ref 0 and done_ = ref 0 in
  let window = closed_window * Array.length t.pipes in
  let deadline = Span.now_s () +. 120.0 in
  while !done_ < closed_requests && Span.now_s () < deadline do
    while !issued < closed_requests && t.in_flight < window do
      incr issued;
      issue r t ~expected (pick ()) ~k:(fun _ -> incr done_)
    done;
    pump_ready t ~timeout_ms:10
  done;
  !done_

let run ~(r : Measure.t) ~seed ~seconds ~process_start =
  let server = ref None in
  at_exit (fun () ->
      match !server with
      | Some pid -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      | None -> ());
  (* set-up: fill a fresh store with the universe's runs, then fork the
     server on it and wait until it answers *)
  let (expected, pid), setup_s =
    Measure.setup ~process_start
      ~stop:(fun (_, pid) ->
        ignore (stop_server pid);
        server := None)
      (fun () ->
        let store = Measure.fresh_store "store" in
        Runner.set_sim_mode Runner.Exact;
        let expected = Array.map Server.compute universe in
        let pid = fork_server ~store in
        server := Some pid;
        if not (wait_ready ()) then failwith "server did not become ready";
        (expected, pid))
  in
  r.setup_s <- setup_s;
  Array.iteri
    (fun i req ->
      Measure.output r "%s %s\n" (spelling req)
        (Digest.to_hex (Digest.string expected.(i))))
    universe;
  let rng = Rng.create seed in
  let t = connect (max 1 (min 2 (Domain.recommended_domain_count ()))) in
  let t0 = Span.now_s () in
  let due, latencies, late =
    Span.with_ "experiments" (fun () ->
        open_loop r t ~expected ~rng:(Rng.split rng ~label:"open")
          ~duration_s:(open_loop_share *. seconds))
  in
  let cpu0 = Measure.cpu_seconds pid and t1 = Span.now_s () in
  let completed =
    Span.with_ "experiments" (fun () ->
        closed_loop r t ~expected ~rng:(Rng.split rng ~label:"closed"))
  in
  let closed_s = Span.now_s () -. t1 in
  let server_cpu_s = Measure.cpu_seconds pid -. cpu0 in
  r.measured_s <- Span.now_s () -. t0;
  Array.iter Pipeline.close t.pipes;
  r.peak_rss_mb <- Some (Measure.peak_rss_mb (Some pid));
  Measure.output r "served %s\n"
    (Digest.to_hex
       (Digest.string
          (String.concat " "
             (List.init t.issued (fun seq ->
                  Option.value ~default:"-" (Hashtbl.find_opt t.served seq))))));
  if not (stop_server pid) then Measure.fail r "server did not drain cleanly";
  server := None;
  (* the closed loop's completions per server CPU second give the
     throughput; the open loop's latencies are per-layer figures, each
     percentile the median of the windows' *)
  r.ops_per_s <- Some (float_of_int completed /. server_cpu_s);
  let windows =
    Array.make (int_of_float (Float.ceil (open_loop_share *. seconds /. window_s))) []
  in
  Array.iteri
    (fun j at ->
      let k = min (Array.length windows - 1) (int_of_float (at /. window_s)) in
      windows.(k) <- latencies.(j) :: windows.(k))
    due;
  let windows =
    List.filter_map
      (fun w ->
        if w = [] then None
        else
          let a = Array.of_list w in
          Array.sort compare a;
          Some a)
      (Array.to_list windows)
  in
  let latency q = Measure.median (List.map (fun a -> Measure.percentile a q) windows) in
  let late_sorted = Array.copy late in
  Array.sort compare late_sorted;
  Measure.note r "closed loop: %d requests in %.2f s (%.0f req/s), server CPU %.2f s (%.1f us/request)"
    completed closed_s
    (float_of_int completed /. closed_s)
    server_cpu_s
    (server_cpu_s /. float_of_int completed *. 1e6);
  Measure.note r "open-loop window p50/p99 (ms): %s"
    (String.concat " "
       (List.map
          (fun a ->
            Printf.sprintf "%.3f/%.2f" (Measure.percentile a 0.5) (Measure.percentile a 0.99))
          windows));
  Measure.note r "generator lateness p50/p99 (ms): %.3f/%.3f"
    (Measure.percentile late_sorted 0.5)
    (Measure.percentile late_sorted 0.99);
  let layers =
    ref
      [
        ("client.req_per_s", float_of_int completed /. closed_s);
        ("client.p50_ms", latency 0.5);
        ("client.p99_ms", latency 0.99);
        ("client.late_ms.p50", Measure.percentile late_sorted 0.5);
        ("client.late_ms.p99", Measure.percentile late_sorted 0.99);
      ]
  in
  (match Textfile.read "." "server-stats.json" with
  | Some s -> (
      match Json.of_string s with
      | Ok j ->
          List.iter
            (fun k ->
              match Option.bind (Json.member k j) Json.to_int_opt with
              | Some v -> layers := ("cache." ^ k, float_of_int v) :: !layers
              | None -> ())
            [ "hits"; "misses"; "bytes_read"; "bytes_written" ]
      | Error _ -> ())
  | None -> ());
  (if !Span.enabled then
     match Textfile.read "." "server-spans.jsonl" with
     | Some text ->
         let spans = Span.of_jsonl text in
         let named n = List.filter (fun (s : Span.t) -> s.Span.name = n) spans in
         let digests = named "serve.digest" and computes = named "serve.compute" in
         let total l = List.fold_left (fun a s -> a +. Span.seconds s) 0.0 l in
         (* queue wait: from a job's admitting digest to its compute *)
         let waits =
           List.filter_map
             (fun (c : Span.t) ->
               List.fold_left
                 (fun best (d : Span.t) ->
                   if d.Span.id = c.Span.id && d.Span.stop_ns <= c.Span.start_ns then
                     match best with
                     | Some (b : Span.t) when b.Span.stop_ns >= d.Span.stop_ns -> best
                     | _ -> Some d
                   else best)
                 None digests
               |> Option.map (fun (d : Span.t) ->
                      Int64.to_float (Int64.sub c.Span.start_ns d.Span.stop_ns) /. 1e6))
             computes
           |> Array.of_list
         in
         Array.sort compare waits;
         let nd = List.length digests and nc = List.length computes in
         layers :=
           [
             ("serve.digest_s", total digests);
             ("serve.compute_s", total computes);
             ("serve.compute_calls", float_of_int nc);
             ( "serve.coalesced_ratio",
               if nd = 0 then 0.0 else 1.0 -. (float_of_int nc /. float_of_int nd) );
             ("serve.queue_wait_ms.p50", Measure.percentile waits 0.5);
             ("serve.queue_wait_ms.p99", Measure.percentile waits 0.99);
           ]
           @ !layers
     | None -> Measure.note r "server wrote no spans");
  r.layers <- !layers @ r.layers
