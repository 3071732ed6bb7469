module Error = Mcd_robust.Error
module Runner = Mcd_experiments.Runner
module Metrics = Mcd_obs.Metrics
module Time = Mcd_util.Time

type config = {
  socket : string;
  workers : int;
  queue_max : int;
  client_max : int;
  conn_inflight_max : int;
  outbuf_max_bytes : int;
  compute_delay_s : float;
  trace_dir : string option;
  drain_grace_s : float;
  drain_deadline_s : float;
  journal : string option;
  deadline_s : float option;
  retry_after_cap_ms : int;
}

(* The journal lives beside the payloads it protects: a restart that can
   see the cache can also see which acknowledged jobs still owe answers. *)
let default_journal_path () =
  Option.map
    (fun store -> Filename.concat (Mcd_cache.Store.dir store) "serve.journal")
    (Mcd_cache.Store.default ())

let default_config ~socket =
  {
    socket;
    workers = 2;
    queue_max = 64;
    client_max = 16;
    conn_inflight_max = 128;
    outbuf_max_bytes = 16 * 1024 * 1024;
    compute_delay_s = 0.0;
    trace_dir = None;
    drain_grace_s = 1.0;
    drain_deadline_s = 60.0;
    journal = default_journal_path ();
    deadline_s = None;
    retry_after_cap_ms = 10_000;
  }

(* --- request resolution ------------------------------------------------ *)

let resolve (r : Protocol.request) =
  match Mcd_workloads.Suite.find_opt r.workload with
  | None ->
      Result.Error
        (Printf.sprintf "unknown workload %S (valid: %s)" r.workload
           (String.concat ", " Mcd_workloads.Suite.names))
  | Some w -> (
      match Mcd_profiling.Context.of_name r.context with
      | exception Not_found ->
          Result.Error
            (Printf.sprintf "unknown context %S (valid: %s)" r.context
               (String.concat ", "
                  (List.map
                     (fun (c : Mcd_profiling.Context.t) -> c.name)
                     Mcd_profiling.Context.all)))
      | context ->
          if not (Float.is_finite r.slowdown_pct) || r.slowdown_pct < 0.0 then
            Result.Error "slowdown must be a non-negative finite percentage"
          else
            let name = Protocol.policy_name r.policy in
            match
              Runner.policy_of_name ~context ~slowdown_pct:r.slowdown_pct
                name w
            with
            | Some p -> Ok (p, w)
            | None -> Result.Error (Printf.sprintf "unknown policy %S" name))

let request_digest (r : Protocol.request) =
  Result.map
    (fun (p, w) -> Mcd_cache.Key.digest (Runner.policy_key p w))
    (resolve r)

let compute (r : Protocol.request) =
  match resolve r with
  | Result.Error msg -> invalid_arg ("Server.compute: " ^ msg)
  | Ok (p, w) -> Mcd_power.Metrics.encode (Runner.policy_run p w)

(* --- socket setup ------------------------------------------------------ *)

let io_error socket message = Error.Server_unavailable { socket; message }

(* A socket file can outlive its server (SIGKILL, crash). Probing
   distinguishes a live server (connect succeeds — refuse to double-bind)
   from a stale corpse (connect refused — unlink and take over). *)
let clear_stale_socket path =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () ->
          Unix.close fd;
          Result.Error
            (io_error path "a server is already listening on this socket")
      | exception Unix.Unix_error (_, _, _) ->
          Unix.close fd;
          (try Sys.remove path with Sys_error _ -> ());
          Ok ())
  | _ ->
      Result.Error (io_error path "path exists and is not a socket")
  | exception Unix.Unix_error (_, _, _) ->
      Result.Error (io_error path "cannot stat socket path")

(* Two servers racing to start see the same stale socket and both decide
   to unlink-and-rebind; the second silently steals the first's bound
   socket file. An exclusive lock file serializes the whole
   probe→unlink→bind sequence: the loser reports Server_unavailable
   instead of corrupting the winner. The lock is held (fd open) for the
   server's lifetime and released by close on exit; the file itself is
   never unlinked — unlinking would reopen the race it exists to close. *)
let acquire_start_lock socket =
  let path = socket ^ ".lock" in
  match Unix.openfile path [ Unix.O_CREAT; Unix.O_RDWR ] 0o644 with
  | exception Unix.Unix_error (e, _, _) ->
      Result.Error (io_error socket (Unix.error_message e))
  | fd -> (
      match Unix.lockf fd Unix.F_TLOCK 0 with
      | () -> Ok fd
      | exception Unix.Unix_error (_, _, _) ->
          (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
          Result.Error
            (io_error socket
               "another server is starting or running (start lock held)"))

let bind_socket path =
  match clear_stale_socket path with
  | Result.Error _ as e -> e
  | Ok () -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          Unix.close fd;
          Result.Error (io_error path (Unix.error_message e)))

(* --- connections ------------------------------------------------------- *)

(* A connection is a pair of byte streams the loop owns outright:
   [acc] holds received bytes not yet parsed into command lines, [out]
   holds rendered reply frames the socket has not yet accepted. All
   writes are buffered-then-flushed, so a slow reader never blocks the
   loop — it accumulates output until {!config.outbuf_max_bytes} and is
   then disconnected. *)
type conn = {
  fd : Unix.file_descr;
  client : string;
  mutable acc : string;  (** bytes received, not yet parsed into lines *)
  out : Evloop.Outbuf.t;  (** rendered frames awaiting the socket *)
  mutable waits : (int * int option) list;
      (** parked [wait]s: job id and the command's seq tag *)
  mutable n_waits : int;
  mutable closing : bool;  (** [quit] received: flush [out], then close *)
}

(* Command lines are small; a line that grows past this without a
   newline is not a client, it is a mistake (or a binary stream aimed
   at the wrong socket). *)
let line_max = 64 * 1024

(* --- the event loop ---------------------------------------------------- *)

type loop_metrics = {
  h_wait : Metrics.histogram;  (** poll dwell time per iteration *)
  h_iter : Metrics.histogram;  (** processing time per iteration *)
  c_wakeups : Metrics.counter;
  c_partial_writes : Metrics.counter;
  c_slow_reader_closes : Metrics.counter;
  g_conns : Metrics.gauge;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;  (** self-pipe: completions poke the loop *)
  wake_w : Unix.file_descr;
  sched : Scheduler.t;
  journal : Journal.t option;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  lm : loop_metrics;
  mutable next_client : int;
  mutable drain_started : float option;
  mutable idle_since : float option;
}

let poke fd =
  (* From a worker domain. The pipe is non-blocking; a full pipe already
     guarantees a pending wakeup, so EAGAIN is success. *)
  try ignore (Unix.write_substring fd "!" 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) ->
    ()

let wire_state : Scheduler.state -> Protocol.state = function
  | Scheduler.Queued -> Protocol.Queued
  | Scheduler.Running -> Protocol.Running
  | Scheduler.Done _ -> Protocol.Done
  | Scheduler.Failed { message; _ } -> Protocol.Failed message

let status_reply (info : Scheduler.info) =
  Protocol.Status_reply { id = info.id; state = wire_state info.state }

(* The warm-restart story lives here: the persistent store's session
   counters are mirrored into the sink registry as [store.*] gauges, so
   a [stats] export shows whether payloads came from recomputation or
   from objects a previous server (or a one-shot CLI run) left behind. *)
let mirror_store_stats t =
  match Mcd_cache.Store.default () with
  | None -> ()
  | Some store ->
      let s = Mcd_cache.Store.stats store in
      Scheduler.with_registry t.sched (fun m ->
          let set name v =
            Metrics.set (Metrics.gauge m name) (float_of_int v)
          in
          set "store.hits" s.hits;
          set "store.misses" s.misses;
          set "store.corrupt" s.corrupt;
          set "store.stores" s.stores;
          set "store.bytes_read" s.bytes_read;
          set "store.bytes_written" s.bytes_written;
          set "store.gc_removed" s.gc_removed;
          set "store.gc_freed_bytes" s.gc_freed_bytes)

(* Journal counters surface as [journal.*] gauges, so `mcd-dvfs status`
   (a [stats] command under the hood) shows whether this server replayed
   work or recovered from a torn/corrupt log. *)
let mirror_journal_stats t =
  match t.journal with
  | None -> ()
  | Some j ->
      let s = Journal.stats j in
      Scheduler.with_registry t.sched (fun m ->
          let set name v =
            Metrics.set (Metrics.gauge m name) (float_of_int v)
          in
          set "journal.admitted" s.Journal.admitted;
          set "journal.finished" s.Journal.finished;
          set "journal.replayed" s.Journal.replayed;
          set "journal.recovered_torn" s.Journal.recovered_torn;
          set "journal.recovered_corrupt" s.Journal.recovered_corrupt)

let begin_drain t =
  if t.drain_started = None then begin
    t.drain_started <- Some (Time.now_s ());
    Scheduler.set_draining t.sched
  end

let close_conn t conn =
  Hashtbl.remove t.conns conn.fd;
  Metrics.set t.lm.g_conns (float_of_int (Hashtbl.length t.conns));
  try Unix.close conn.fd with Unix.Unix_error (_, _, _) -> ()

(* All replies are buffered: the loop never blocks on a peer's receive
   window. The flush pass pushes [out] whenever the socket will take
   bytes and disconnects readers that fall [outbuf_max_bytes] behind. *)
let enqueue conn ?seq reply =
  Evloop.Outbuf.add conn.out (Protocol.render_reply ?seq reply ^ "\n")

let enqueue_payload conn ?seq reply body =
  Evloop.Outbuf.add conn.out (Protocol.render_reply ?seq reply ^ "\n");
  Evloop.Outbuf.add conn.out body;
  Evloop.Outbuf.add conn.out "end\n"

let handle_command t conn ~digest ~seq = function
  | Protocol.Ping -> enqueue conn ?seq Protocol.Pong
  | Protocol.Quit -> conn.closing <- true
  | Protocol.Drain ->
      begin_drain t;
      enqueue conn ?seq Protocol.Draining_reply
  | Protocol.Stats ->
      mirror_store_stats t;
      mirror_journal_stats t;
      let body = Scheduler.export_metrics t.sched in
      enqueue_payload conn ?seq
        (Protocol.Stats_payload { bytes = String.length body })
        body
  | Protocol.Submit { priority; request } -> (
      match digest request with
      | Result.Error msg ->
          enqueue conn ?seq (Protocol.Rejected (Protocol.Bad_request msg))
      | Ok dg -> (
          match
            Scheduler.submit t.sched ~client:conn.client ~priority ~digest:dg
              request
          with
          | Scheduler.Accepted info ->
              (* Write-ahead: the admit record is durable (fsynced)
                 before the ack leaves this process, so an acknowledged
                 job survives any later crash. *)
              (match t.journal with
              | Some j ->
                  Journal.admit j
                    {
                      Journal.id = info.id;
                      client = conn.client;
                      priority;
                      digest = dg;
                      request;
                    }
              | None -> ());
              enqueue conn ?seq
                (Protocol.Queued_reply
                   { id = info.id; digest = dg; coalesced = false })
          | Scheduler.Coalesced info ->
              enqueue conn ?seq
                (Protocol.Queued_reply
                   { id = info.id; digest = dg; coalesced = true })
          | Scheduler.Rejected reject ->
              enqueue conn ?seq (Protocol.Rejected reject)))
  | Protocol.Status id -> (
      match Scheduler.find t.sched id with
      | None -> enqueue conn ?seq (Protocol.Rejected (Protocol.Unknown_job id))
      | Some info -> enqueue conn ?seq (status_reply info))
  | Protocol.Wait id -> (
      match Scheduler.find t.sched id with
      | None -> enqueue conn ?seq (Protocol.Rejected (Protocol.Unknown_job id))
      | Some info -> (
          match info.state with
          | Scheduler.Done _ | Scheduler.Failed _ ->
              enqueue conn ?seq (status_reply info)
          | Scheduler.Queued | Scheduler.Running ->
              (* Per-connection in-flight cap: a pipelined client
                 parking unbounded waits would grow [waits] (and the
                 eventual answer burst) without limit. Past the cap the
                 wait is refused with the usual backoff hint. *)
              if conn.n_waits >= t.cfg.conn_inflight_max then
                enqueue conn ?seq
                  (Protocol.Rejected
                     (Protocol.Overloaded
                        {
                          queue_depth = conn.n_waits;
                          limit = t.cfg.conn_inflight_max;
                          retry_after_ms = Scheduler.retry_after_ms t.sched;
                        }))
              else begin
                conn.waits <- (id, seq) :: conn.waits;
                conn.n_waits <- conn.n_waits + 1
              end))
  | Protocol.Result id -> (
      match Scheduler.find t.sched id with
      | None -> enqueue conn ?seq (Protocol.Rejected (Protocol.Unknown_job id))
      | Some info -> (
          match info.state with
          | Scheduler.Done payload ->
              enqueue_payload conn ?seq
                (Protocol.Payload { id; bytes = String.length payload })
                payload
          | Scheduler.Failed { message; _ } ->
              let reject =
                if info.timed_out then
                  Protocol.Deadline
                    {
                      id;
                      deadline_ms =
                        int_of_float
                          (1000.0 *. Option.value ~default:0.0 t.cfg.deadline_s);
                    }
                else Protocol.Job_failed { id; message }
              in
              enqueue conn ?seq (Protocol.Rejected reject)
          | Scheduler.Queued | Scheduler.Running ->
              enqueue conn ?seq (Protocol.Rejected (Protocol.Not_done id))))

(* Run every complete line of the connection's accumulator plus [chunk],
   scanning by offset, then keep the unterminated remainder once: a read
   carrying n pipelined lines costs time linear in its bytes, not
   quadratic in n. *)
let handle_input t conn ~digest chunk =
  let buf = if conn.acc = "" then chunk else conn.acc ^ chunk in
  let rec go off =
    if conn.closing then off
    else
      match String.index_from_opt buf off '\n' with
      | None -> off
      | Some i ->
          let line = String.sub buf off (i - off) in
          (match Protocol.parse_command line with
          | Ok (cmd, seq) -> handle_command t conn ~digest ~seq cmd
          | Result.Error reason ->
              enqueue conn
                (Protocol.Rejected
                   (Protocol.Bad_request
                      (Printf.sprintf "%s (line %S)" reason line))));
          go (i + 1)
  in
  let off = go 0 in
  let rest = String.length buf - off in
  conn.acc <- (if off = 0 then buf else String.sub buf off rest);
  if rest > line_max && not conn.closing then begin
    enqueue conn
      (Protocol.Rejected (Protocol.Bad_request "command line too long"));
    conn.closing <- true
  end

let answer_parked_waits t =
  Hashtbl.iter
    (fun _ conn ->
      match conn.waits with
      | [] -> ()
      | waits ->
          let still_pending =
            List.filter
              (fun (id, seq) ->
                match Scheduler.find t.sched id with
                | None ->
                    enqueue conn ?seq
                      (Protocol.Rejected (Protocol.Unknown_job id));
                    false
                | Some info -> (
                    match info.state with
                    | Scheduler.Done _ | Scheduler.Failed _ ->
                        enqueue conn ?seq (status_reply info);
                        false
                    | Scheduler.Queued | Scheduler.Running -> true))
              (List.rev waits)
          in
          conn.waits <- List.rev still_pending;
          conn.n_waits <- List.length still_pending)
    t.conns

(* Accept everything pending — the listen fd is level-triggered but one
   readiness report can cover a burst of connects. *)
let accept_conns t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        let client = Printf.sprintf "c%d" t.next_client in
        t.next_client <- t.next_client + 1;
        let conn =
          {
            fd;
            client;
            acc = "";
            out = Evloop.Outbuf.create ();
            waits = [];
            n_waits = 0;
            closing = false;
          }
        in
        Hashtbl.replace t.conns fd conn;
        Metrics.set t.lm.g_conns (float_of_int (Hashtbl.length t.conns));
        enqueue conn
          (Protocol.Ready
             {
               version = Protocol.version;
               workers = Scheduler.workers t.sched;
               queue_max = Scheduler.queue_max t.sched;
             });
        go ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ()

let drain_wake_pipe t =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r buf 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ()

(* Nothing owed to any client: no parked waits, no unflushed output. *)
let quiescent t =
  Hashtbl.fold
    (fun _ c acc -> acc && c.waits = [] && Evloop.Outbuf.is_empty c.out)
    t.conns true

(* Drain watchdog: [true] once the server should exit. Grace lets a
   client fetch the result of a job that finished during the drain; the
   deadline bounds everything. *)
let drained t =
  match t.drain_started with
  | None -> false
  | Some started ->
      let now = Time.now_s () in
      if now -. started > t.cfg.drain_deadline_s then true
      else if Scheduler.idle t.sched && quiescent t then begin
        (match t.idle_since with None -> t.idle_since <- Some now | Some _ -> ());
        Hashtbl.length t.conns = 0
        || now -. Option.get t.idle_since > t.cfg.drain_grace_s
      end
      else begin
        t.idle_since <- None;
        false
      end

let stop_requested = Atomic.make false

(* OCaml 5 may run a signal handler on any domain; setting the flag is
   not enough when the loop domain is parked in poll. The handler also
   pokes the wake pipe, so a SIGTERM interrupts even an idle 60s wait. *)
let install_signal_handlers ~wake =
  let request _ =
    Atomic.set stop_requested true;
    poke wake
  in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle request)
   with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigint (Sys.Signal_handle request)
  with Invalid_argument _ -> ()

(* The poll timeout is deadline-driven, not a fixed tick: idle servers
   park for up to [idle_backstop_ms] (completions, connects and signals
   all interrupt via fd readiness), draining servers wake exactly when
   the grace or deadline clock next expires. *)
let idle_backstop_ms = 60_000

let loop_timeout_ms t =
  match t.drain_started with
  | None -> idle_backstop_ms
  | Some started ->
      let now = Time.now_s () in
      let until_deadline = started +. t.cfg.drain_deadline_s -. now in
      let until_grace =
        match t.idle_since with
        | Some i -> Float.min (i +. t.cfg.drain_grace_s -. now) until_deadline
        | None -> until_deadline
      in
      max 1 (int_of_float (Float.ceil (until_grace *. 1000.0)))

let interests t =
  { Evloop.fd = t.listen_fd; read = true; write = false }
  :: { Evloop.fd = t.wake_r; read = true; write = false }
  :: Hashtbl.fold
       (fun fd c acc ->
         {
           Evloop.fd;
           read = not c.closing;
           write = not (Evloop.Outbuf.is_empty c.out);
         }
         :: acc)
       t.conns []

let read_conn t conn ~digest buf =
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | 0 -> close_conn t conn
  | n -> handle_input t conn ~digest (Bytes.sub_string buf 0 n)
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t conn

(* Push buffered output on every connection that has any; reap peers
   that closed, finished [quit]s, and readers too slow to keep up.
   Snapshot first — [close_conn] mutates the table. *)
let flush_conns t =
  let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter
    (fun c ->
      if Evloop.Outbuf.length c.out > t.cfg.outbuf_max_bytes then begin
        Metrics.incr t.lm.c_slow_reader_closes;
        close_conn t c
      end
      else if not (Evloop.Outbuf.is_empty c.out) then begin
        match Evloop.Outbuf.flush c.out c.fd with
        | `Closed -> close_conn t c
        | `Partial -> Metrics.incr t.lm.c_partial_writes
        | `All -> if c.closing then close_conn t c
      end
      else if c.closing then close_conn t c)
    conns

let ms_bin dt = Scheduler.latency_bin_of_ms (int_of_float (dt *. 1000.0))

let serve_loop t ~digest =
  let buf = Bytes.create 65536 in
  let rec loop () =
    if Atomic.get stop_requested then begin_drain t;
    if drained t then ()
    else begin
      let t0 = Time.now_s () in
      let events = Evloop.wait (interests t) ~timeout_ms:(loop_timeout_ms t) in
      let t1 = Time.now_s () in
      Metrics.observe t.lm.h_wait ~bin:(ms_bin (t1 -. t0)) ~weight:1.0;
      List.iter
        (fun (ev : Evloop.event) ->
          if ev.fd = t.listen_fd then accept_conns t
          else if ev.fd = t.wake_r then begin
            drain_wake_pipe t;
            Metrics.incr t.lm.c_wakeups
          end
          else
            match Hashtbl.find_opt t.conns ev.fd with
            | None -> ()
            | Some conn ->
                if ev.readable && not conn.closing then
                  read_conn t conn ~digest buf)
        events;
      answer_parked_waits t;
      flush_conns t;
      Metrics.observe t.lm.h_iter
        ~bin:(ms_bin (Time.now_s () -. t1))
        ~weight:1.0;
      loop ()
    end
  in
  loop ()

(* A drain that hit its deadline can exit with clients still parked on
   waits for jobs that never finished. They are answered [Draining] —
   a typed "retry elsewhere/later", not a silent hang until TCP notices
   the close. *)
let answer_parked_with_draining t =
  Hashtbl.iter
    (fun _ conn ->
      List.iter
        (fun (_, seq) ->
          enqueue conn ?seq (Protocol.Rejected Protocol.Draining))
        (List.rev conn.waits);
      conn.waits <- [];
      conn.n_waits <- 0)
    t.conns

(* Best-effort exit flush: bounded, so a wedged peer cannot hold the
   shutdown hostage. *)
let final_flush t =
  let deadline = Time.now_s () +. 1.0 in
  Hashtbl.iter
    (fun _ conn ->
      let rec go () =
        if Time.now_s () < deadline then
          match Evloop.Outbuf.flush conn.out conn.fd with
          | `All | `Closed -> ()
          | `Partial ->
              ignore
                (Evloop.wait_fd conn.fd ~read:false ~write:true ~timeout_ms:50);
              go ()
      in
      go ())
    t.conns

let run ?(digest = request_digest) ?compute:(compute_fn = compute) cfg =
  match acquire_start_lock cfg.socket with
  | Result.Error _ as e -> e
  | Ok lock_fd -> (
      let release_lock () =
        try Unix.close lock_fd with Unix.Unix_error (_, _, _) -> ()
      in
      match bind_socket cfg.socket with
      | Result.Error _ as e ->
          release_lock ();
          e
      | Ok listen_fd ->
          Unix.set_nonblock listen_fd;
          Atomic.set stop_requested false;
          let journal, replay, next_id =
            match cfg.journal with
            | None -> (None, [], 1)
            | Some path -> (
                match Journal.open_journal ~path () with
                | Ok (j, recovery) ->
                    (match recovery.Journal.corrupt with
                    | Some err ->
                        Printf.eprintf "mcd-dvfs: %s\n%!" (Error.to_string err)
                    | None -> ());
                    (Some j, recovery.Journal.replay, recovery.Journal.next_id)
                | Result.Error err ->
                    (* journal-less serving beats not serving: replay
                       protection is lost, answers stay correct *)
                    Printf.eprintf "mcd-dvfs: %s\n%!" (Error.to_string err);
                    (None, [], 1))
          in
          let wake_r, wake_w = Unix.pipe () in
          Unix.set_nonblock wake_w;
          Unix.set_nonblock wake_r;
          install_signal_handlers ~wake:wake_w;
          let compute_wrapped req =
            if cfg.compute_delay_s > 0.0 then Unix.sleepf cfg.compute_delay_s;
            compute_fn req
          in
          (* on_complete runs in a worker (or watchdog) domain before the
             self-pipe poke; Journal.append serializes under its own
             mutex. The scheduler ref breaks the create-order knot: the
             callback needs the scheduler the call is constructing. *)
          let sched_cell = ref None in
          let on_complete id =
            (match (journal, !sched_cell) with
            | Some j, Some sched -> (
                match Scheduler.find sched id with
                | Some { Scheduler.state = Scheduler.Done _; _ } ->
                    Journal.mark_done j ~id
                | Some { Scheduler.state = Scheduler.Failed { message; _ }; _ }
                  ->
                    Journal.mark_failed j ~id ~msg:message
                | Some _ | None -> ())
            | _ -> ());
            poke wake_w
          in
          let sched =
            Scheduler.create ~workers:cfg.workers ~queue_max:cfg.queue_max
              ~client_max:cfg.client_max ?deadline_s:cfg.deadline_s
              ~retry_after_cap_ms:cfg.retry_after_cap_ms ~on_complete
              ~compute:compute_wrapped ()
          in
          sched_cell := Some sched;
          ignore (Scheduler.restore sched ~next_id replay);
          let lm =
            Scheduler.with_registry sched (fun m ->
                {
                  h_wait =
                    Metrics.histogram m "serve.loop.wait_ms"
                      ~bins:Scheduler.latency_bins;
                  h_iter =
                    Metrics.histogram m "serve.loop.iter_ms"
                      ~bins:Scheduler.latency_bins;
                  c_wakeups = Metrics.counter m "serve.loop.wakeups";
                  c_partial_writes =
                    Metrics.counter m "serve.loop.partial_writes";
                  c_slow_reader_closes =
                    Metrics.counter m "serve.loop.slow_reader_closes";
                  g_conns = Metrics.gauge m "serve.loop.connections";
                })
          in
          let t =
            {
              cfg;
              listen_fd;
              wake_r;
              wake_w;
              sched;
              journal;
              conns = Hashtbl.create 16;
              lm;
              next_client = 1;
              drain_started = None;
              idle_since = None;
            }
          in
          serve_loop t ~digest;
          answer_parked_with_draining t;
          final_flush t;
          Hashtbl.iter
            (fun _ conn -> try Unix.close conn.fd with _ -> ())
            t.conns;
          (try Unix.close listen_fd with _ -> ());
          (try Sys.remove cfg.socket with Sys_error _ -> ());
          Scheduler.shutdown sched;
          (match journal with Some j -> Journal.close j | None -> ());
          (try Unix.close wake_r with _ -> ());
          (try Unix.close wake_w with _ -> ());
          (match cfg.trace_dir with
          | None -> ()
          | Some dir ->
              mirror_store_stats t;
              mirror_journal_stats t;
              ignore (Mcd_obs.Export.write_dir ~dir (Scheduler.sink sched)));
          release_lock ();
          Ok ())
