module Metrics = Mcd_obs.Metrics
module Sink = Mcd_obs.Sink
module Time = Mcd_util.Time

type state =
  | Queued
  | Running
  | Done of string
  | Failed of { message : string; backtrace : string }

type job = {
  id : int;
  digest : string;
  request : Protocol.request;
  priority : Protocol.priority;
  client : string;
  mutable state : state;
  mutable submits : int;
  submitted_s : float;
  mutable latency_s : float;
  mutable started_s : float;
  mutable timed_out : bool;
}

type info = {
  id : int;
  digest : string;
  request : Protocol.request;
  priority : Protocol.priority;
  client : string;
  state : state;
  submits : int;
  latency_s : float;
  timed_out : bool;
}

type t = {
  mutex : Mutex.t;
  work : Condition.t;
  queue : job Jobq.t;
  jobs : (int, job) Hashtbl.t;
  by_digest : (string, job) Hashtbl.t;
  compute : Protocol.request -> string;
  on_complete : int -> unit;
  sink : Sink.t;
  started_s : float;
  n_workers : int;
  deadline_s : float option;
  retry_after_cap_ms : int;
  mutable next_id : int;
  mutable busy : int;
  mutable draining : bool;
  mutable stopped : bool;
  mutable joined : bool;
  mutable latency_ewma_s : float;
  mutable domains : unit Domain.t list;
  (* instruments (all registered in [create]; updated under [mutex]) *)
  m_submitted : Metrics.counter;
  m_coalesced : Metrics.counter;
  m_rejected : Metrics.counter;
  m_completed : Metrics.counter;
  m_failed : Metrics.counter;
  m_deadline : Metrics.counter;
  m_replayed : Metrics.counter;
  g_depth : Metrics.gauge;
  g_busy : Metrics.gauge;
  h_latency : Metrics.histogram;
}

(* serve.latency_ms bin [i] covers [2^i - 1, 2^(i+1) - 1) milliseconds;
   the last bin is open-ended. *)
let latency_bins = 12

let latency_bin_of_ms ms =
  let rec go i bound = if ms < bound || i = latency_bins - 1 then i else go (i + 1) ((bound + 1) * 2 - 1) in
  go 0 1

let info_of_job (j : job) =
  {
    id = j.id;
    digest = j.digest;
    request = j.request;
    priority = j.priority;
    client = j.client;
    state = j.state;
    submits = j.submits;
    latency_s = j.latency_s;
    timed_out = j.timed_out;
  }

(* Monotonic time since scheduler start, as the sink's picosecond axis. *)
let now_ps t = int_of_float ((Time.now_s () -. t.started_s) *. 1e12)

let update_gauges t =
  Metrics.set t.g_depth (float_of_int (Jobq.length t.queue));
  Metrics.set t.g_busy (float_of_int t.busy)

(* --- worker pool ------------------------------------------------------- *)

(* Called with the mutex held; returns with it held. *)
let rec take t =
  if t.stopped then None
  else
    match Jobq.pop t.queue with
    | Some job ->
        job.state <- Running;
        job.started_s <- Time.now_s ();
        t.busy <- t.busy + 1;
        update_gauges t;
        Some job
    | None ->
        Condition.wait t.work t.mutex;
        take t

(* Returns [false] when this worker found its job already failed by the
   deadline watchdog: the watchdog spawned a replacement, so the
   now-surplus worker retires instead of over-provisioning the pool. *)
let run_one t (job : job) =
  let outcome =
    match t.compute job.request with
    | payload -> Ok payload
    | exception e ->
        (* Mark the job failed and free the worker — a raising compute
           must not wedge the pool. The backtrace is captured at the
           raise site, the same discipline Par.map uses before
           raise_with_backtrace; here it is recorded in the job rather
           than re-raised, because the failure belongs to one request,
           not to the service. *)
        let bt = Printexc.get_raw_backtrace () in
        Result.Error (Printexc.to_string e, Printexc.raw_backtrace_to_string bt)
  in
  Mutex.lock t.mutex;
  if job.timed_out then begin
    (* The watchdog already failed this job and answered its waiters;
       the late result is discarded — serving it now would race the
       typed deadline error the client saw. *)
    t.busy <- t.busy - 1;
    update_gauges t;
    Mutex.unlock t.mutex;
    false
  end
  else begin
    job.latency_s <- Time.now_s () -. job.submitted_s;
    let ms = job.latency_s *. 1000.0 in
    Metrics.observe t.h_latency ~bin:(latency_bin_of_ms (int_of_float ms)) ~weight:1.0;
    t.latency_ewma_s <-
      (if t.latency_ewma_s = 0.0 then job.latency_s
       else (0.7 *. t.latency_ewma_s) +. (0.3 *. job.latency_s));
    (match outcome with
    | Ok payload ->
        job.state <- Done payload;
        Metrics.incr t.m_completed;
        Sink.decision t.sink ~t_ps:(now_ps t) ~source:"serve"
          ~trigger:Sink.Marker
          ~detail:(Printf.sprintf "done id=%d ms=%.1f" job.id ms)
          ()
    | Result.Error (message, backtrace) ->
        job.state <- Failed { message; backtrace };
        Metrics.incr t.m_failed;
        Sink.degraded t.sink ~t_ps:(now_ps t) ~source:"serve"
          ~detail:(Printf.sprintf "job %d failed: %s" job.id message));
    t.busy <- t.busy - 1;
    update_gauges t;
    Mutex.unlock t.mutex;
    t.on_complete job.id;
    true
  end

let rec worker_loop t =
  Mutex.lock t.mutex;
  let job = take t in
  Mutex.unlock t.mutex;
  match job with
  | None -> ()
  | Some job -> if run_one t job then worker_loop t

(* --- deadline watchdog -------------------------------------------------- *)

(* OCaml domains cannot be killed, so an overdue compute cannot be
   interrupted — instead the watchdog fails the *job* (typed, so the
   client sees Deadline rather than a hang) and spawns a replacement
   worker domain. The stuck worker becomes a zombie: whenever its
   compute finally returns, run_one discards the result and retires it,
   shrinking the pool back to [n_workers]. *)
let watchdog_tick t ~deadline_s =
  let now = Time.now_s () in
  Mutex.lock t.mutex;
  let overdue = ref [] in
  Hashtbl.iter
    (fun _ (job : job) ->
      match job.state with
      | Running when (not job.timed_out) && now -. job.started_s > deadline_s ->
          overdue := job :: !overdue
      | _ -> ())
    t.jobs;
  List.iter
    (fun (job : job) ->
      let deadline_ms = int_of_float (deadline_s *. 1000.0) in
      job.timed_out <- true;
      job.state <-
        Failed
          {
            message =
              Mcd_robust.Error.to_string
                (Mcd_robust.Error.Deadline_exceeded
                   { id = job.id; deadline_ms });
            backtrace = "";
          };
      job.latency_s <- now -. job.submitted_s;
      Metrics.incr t.m_deadline;
      Metrics.incr t.m_failed;
      (* a timed-out digest is forgotten so a retry recomputes instead
         of coalescing onto the failure forever *)
      (match Hashtbl.find_opt t.by_digest job.digest with
      | Some j when j.id = job.id -> Hashtbl.remove t.by_digest job.digest
      | _ -> ());
      Sink.degraded t.sink ~t_ps:(now_ps t) ~source:"serve"
        ~detail:
          (Printf.sprintf "job %d deadline exceeded after %.2fs" job.id
             (now -. job.started_s)))
    !overdue;
  let replacements =
    if t.stopped then []
    else List.map (fun _ -> Domain.spawn (fun () -> worker_loop t)) !overdue
  in
  t.domains <- replacements @ t.domains;
  Mutex.unlock t.mutex;
  List.iter (fun (job : job) -> t.on_complete job.id) !overdue

let rec watchdog_loop t ~deadline_s =
  if not t.stopped then begin
    (* tick proportional to the deadline, floored at 10ms so short test
       deadlines stay sharp, capped at 250ms so a long deadline neither
       scans the job table needlessly often nor makes shutdown's
       Domain.join wait out a multi-second sleep *)
    Unix.sleepf (Float.max 0.01 (Float.min 0.25 (deadline_s /. 4.0)));
    watchdog_tick t ~deadline_s;
    watchdog_loop t ~deadline_s
  end

(* --- construction ------------------------------------------------------ *)

let create ?(workers = 1) ?(queue_max = 64) ?(client_max = 16) ?deadline_s
    ?(retry_after_cap_ms = 10_000) ?sink ?(on_complete = fun _ -> ()) ~compute
    () =
  Printexc.record_backtrace true;
  let sink = match sink with Some s -> s | None -> Sink.create ~domains:1 () in
  let metrics = Sink.metrics sink in
  let t =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Jobq.create ~queue_max ~client_max ();
      jobs = Hashtbl.create 64;
      by_digest = Hashtbl.create 64;
      compute;
      on_complete;
      sink;
      started_s = Time.now_s ();
      n_workers = max 1 workers;
      deadline_s;
      retry_after_cap_ms = max 100 retry_after_cap_ms;
      next_id = 1;
      busy = 0;
      draining = false;
      stopped = false;
      joined = false;
      latency_ewma_s = 0.0;
      domains = [];
      m_submitted = Metrics.counter metrics "serve.submitted";
      m_coalesced = Metrics.counter metrics "serve.coalesced";
      m_rejected = Metrics.counter metrics "serve.rejected";
      m_completed = Metrics.counter metrics "serve.completed";
      m_failed = Metrics.counter metrics "serve.failed";
      m_deadline = Metrics.counter metrics "serve.deadline_exceeded";
      m_replayed = Metrics.counter metrics "serve.replayed";
      g_depth = Metrics.gauge metrics "serve.queue_depth";
      g_busy = Metrics.gauge metrics "serve.busy_workers";
      h_latency = Metrics.histogram metrics "serve.latency_ms" ~bins:latency_bins;
    }
  in
  t.domains <-
    List.init t.n_workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  (match deadline_s with
  | Some d when d > 0.0 ->
      t.domains <-
        Domain.spawn (fun () -> watchdog_loop t ~deadline_s:d) :: t.domains
  | Some _ | None -> ());
  t

let workers t = t.n_workers
let queue_max t = Jobq.queue_max t.queue
let sink t = t.sink

(* --- submission -------------------------------------------------------- *)

type admission =
  | Accepted of info
  | Coalesced of info
  | Rejected of Protocol.reject

(* The hint scales with observed latency: when jobs take seconds, "try
   again in 100ms" just converts backpressure into a retry storm. The
   cap keeps a latency spike from teaching clients to stay away for
   minutes after the spike has passed. *)
let retry_after_ms t =
  max 100 (min t.retry_after_cap_ms (int_of_float (t.latency_ewma_s *. 1000.0)))

let submit t ~client ~priority ~digest request =
  Mutex.lock t.mutex;
  Metrics.incr t.m_submitted;
  let verdict =
    if t.draining || t.stopped then begin
      Metrics.incr t.m_rejected;
      Sink.degraded t.sink ~t_ps:(now_ps t) ~source:"serve"
        ~detail:(Printf.sprintf "rejected (draining) client=%s" client);
      Rejected Protocol.Draining
    end
    else
      match Hashtbl.find_opt t.by_digest digest with
      | Some job ->
          job.submits <- job.submits + 1;
          Metrics.incr t.m_coalesced;
          Coalesced (info_of_job job)
      | None -> (
          let job =
            {
              id = t.next_id;
              digest;
              request;
              priority;
              client;
              state = Queued;
              submits = 1;
              submitted_s = Time.now_s ();
              latency_s = 0.0;
              started_s = 0.0;
              timed_out = false;
            }
          in
          match
            Jobq.push t.queue
              ~level:(Protocol.priority_level priority)
              ~client job
          with
          | Result.Error rejection ->
              Metrics.incr t.m_rejected;
              let queue_depth, limit =
                match rejection with
                | Jobq.Queue_full depth -> (depth, Jobq.queue_max t.queue)
                | Jobq.Client_full mine -> (mine, Jobq.client_max t.queue)
              in
              Sink.degraded t.sink ~t_ps:(now_ps t) ~source:"serve"
                ~detail:
                  (Printf.sprintf "rejected (overloaded %d/%d) client=%s"
                     queue_depth limit client);
              Rejected
                (Protocol.Overloaded
                   { queue_depth; limit; retry_after_ms = retry_after_ms t })
          | Ok () ->
              t.next_id <- t.next_id + 1;
              Hashtbl.replace t.jobs job.id job;
              Hashtbl.replace t.by_digest digest job;
              update_gauges t;
              Sink.decision t.sink ~t_ps:(now_ps t) ~source:"serve"
                ~trigger:Sink.Marker
                ~detail:
                  (Printf.sprintf "submit id=%d digest=%s client=%s" job.id
                     digest client)
                ();
              Condition.signal t.work;
              Accepted (info_of_job job))
  in
  Mutex.unlock t.mutex;
  verdict

(* --- journal replay ----------------------------------------------------- *)

(* Re-queue jobs recovered from the journal, preserving their original
   ids (a client reconnecting after a crash polls the id it was acked
   with). Replay bypasses admission bounds: these jobs were already
   admitted once, and must not be dropped because the restart came up
   with a smaller queue configuration. [next_id] is the journal's
   high-water mark and floors fresh allocations even when the replay
   list is empty — every pre-crash job may have completed, but its id
   is still owned by whichever client was acked with it. *)
let restore t ~next_id (entries : Journal.entry list) =
  Mutex.lock t.mutex;
  t.next_id <- max t.next_id next_id;
  let n =
    List.fold_left
      (fun n (e : Journal.entry) ->
        if Hashtbl.mem t.jobs e.Journal.id then n
        else begin
          let job =
            {
              id = e.Journal.id;
              digest = e.Journal.digest;
              request = e.Journal.request;
              priority = e.Journal.priority;
              client = e.Journal.client;
              state = Queued;
              submits = 1;
              submitted_s = Time.now_s ();
              latency_s = 0.0;
              started_s = 0.0;
              timed_out = false;
            }
          in
          (match
             Jobq.push ~force:true t.queue
               ~level:(Protocol.priority_level job.priority)
               ~client:job.client job
           with
          | Ok () -> ()
          | Result.Error _ -> assert false (* force push cannot reject *));
          Hashtbl.replace t.jobs job.id job;
          Hashtbl.replace t.by_digest job.digest job;
          t.next_id <- max t.next_id (job.id + 1);
          Metrics.incr t.m_replayed;
          n + 1
        end)
      0 entries
  in
  if n > 0 then begin
    update_gauges t;
    Sink.decision t.sink ~t_ps:(now_ps t) ~source:"serve" ~trigger:Sink.Marker
      ~detail:(Printf.sprintf "replayed %d journaled jobs" n)
      ();
    Condition.broadcast t.work
  end;
  Mutex.unlock t.mutex;
  n

(* --- inspection -------------------------------------------------------- *)

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t id =
  locked t (fun () -> Option.map info_of_job (Hashtbl.find_opt t.jobs id))

let queue_depth t = locked t (fun () -> Jobq.length t.queue)
let busy t = locked t (fun () -> t.busy)
let idle t = locked t (fun () -> Jobq.length t.queue = 0 && t.busy = 0)

let set_draining t =
  locked t (fun () ->
      if not t.draining then begin
        t.draining <- true;
        Sink.degraded t.sink ~t_ps:(now_ps t) ~source:"serve"
          ~detail:"draining: admission closed"
      end)

let draining t = locked t (fun () -> t.draining)

(* OCaml's Condition has no timed wait, and neither caller is hot:
   polling at a few hundred hertz is the simple correct watchdog. *)
let poll_until ~timeout_s cond =
  let deadline = Time.now_s () +. timeout_s in
  let rec go () =
    if cond () then true
    else if Time.now_s () > deadline then cond ()
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

let await_idle ?(timeout_s = 60.0) t = poll_until ~timeout_s (fun () -> idle t)

let terminal (i : info) =
  match i.state with Done _ | Failed _ -> true | Queued | Running -> false

let wait_job ?(timeout_s = 60.0) t id =
  match find t id with
  | None -> None
  | Some _ ->
      let ok =
        poll_until ~timeout_s (fun () ->
            match find t id with Some i -> terminal i | None -> true)
      in
      ignore ok;
      find t id

let with_registry t f = locked t (fun () -> f (Sink.metrics t.sink))
let export_metrics t = locked t (fun () -> Mcd_obs.Export.metrics_jsonl t.sink)

let shutdown t =
  let join =
    locked t (fun () ->
        if t.joined then []
        else begin
          t.joined <- true;
          t.stopped <- true;
          Condition.broadcast t.work;
          t.domains
        end)
  in
  List.iter Domain.join join
