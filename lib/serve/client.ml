module Error = Mcd_robust.Error

type ticket = { id : int; digest : string; coalesced : bool }

(* --- what each command accepts as its answer ----------------------------- *)

let queued (f : Protocol.Frames.frame) =
  match f.reply with
  | Protocol.Queued_reply { id; digest; coalesced } ->
      Some { id; digest; coalesced }
  | _ -> None

let job_state (f : Protocol.Frames.frame) =
  match f.reply with
  | Protocol.Status_reply { state; _ } -> Some state
  | _ -> None

(* Frames hands payload-carrying replies their body as [Some _]. *)
let payload (f : Protocol.Frames.frame) =
  match f.reply with Protocol.Payload _ -> f.body | _ -> None

let stats_body (f : Protocol.Frames.frame) =
  match f.reply with Protocol.Stats_payload _ -> f.body | _ -> None

let pong (f : Protocol.Frames.frame) =
  match f.reply with Protocol.Pong -> Some () | _ -> None

let draining (f : Protocol.Frames.frame) =
  match f.reply with Protocol.Draining_reply -> Some () | _ -> None

let greeting (f : Protocol.Frames.frame) =
  match f.reply with
  | Protocol.Ready { version; workers; queue_max } ->
      Some (version, workers, queue_max)
  | _ -> None

(* --- the connection state machine ---------------------------------------- *)

module Pipeline = struct
  (* Non-blocking socket + seq-tagged commands + the shared incremental
     frame decoder. Every command in flight is one continuation keyed by
     the seq of the command whose answer it is waiting for; the
     greeting, the only reply without a seq, waits under key 0. A
     request is a chain of such commands:

       submit --queued--> wait --terminal status--> result --payload--> k

     The server answers waits in completion order, so frames for
     different requests interleave arbitrarily; the seq tag routes each
     one. Callbacks fire inside {!pump}, on the caller's thread. *)

  type t = {
    socket : string;
    fd : Unix.file_descr;
    frames : Protocol.Frames.t;
    out : Evloop.Outbuf.t;
    buf : Bytes.t;
    pending : (int, (Protocol.Frames.frame, Error.t) result -> unit) Hashtbl.t;
    mutable next_seq : int;
    mutable failed : Error.t option;
    mutable version : int;
    mutable workers : int;
    mutable queue_max : int;
  }

  let version t = t.version
  let workers t = t.workers
  let queue_max t = t.queue_max
  let fd t = t.fd
  let in_flight t = Hashtbl.length t.pending
  let has_output t = not (Evloop.Outbuf.is_empty t.out)

  (* Terminal transport/framing failure: every command in flight is
     answered with the error, and the connection refuses further use. *)
  let fail t e =
    if t.failed = None then begin
      t.failed <- Some e;
      let ks = Hashtbl.fold (fun _ k acc -> k :: acc) t.pending [] in
      Hashtbl.reset t.pending;
      List.iter (fun k -> k (Result.Error e)) ks
    end;
    Result.Error e

  let transport_lost t =
    fail t
      (Error.Server_unavailable
         { socket = t.socket; message = "connection closed by server" })

  let violation t reply reason =
    fail t
      (Error.Protocol_violation { line = Protocol.render_reply reply; reason })

  (* Register the continuation for the reply tagged [seq]. A rejection
     is the command's typed answer; any other reply [decode] does not
     accept has desynchronized the stream and fails the connection. *)
  let expect t seq ~what decode k =
    Hashtbl.replace t.pending seq (function
      | Result.Error e -> k (Result.Error e)
      | Ok (f : Protocol.Frames.frame) -> (
          match f.reply with
          | Protocol.Rejected r -> k (Result.Error (Protocol.error_of_reject r))
          | reply -> (
              match decode f with
              | Some v -> k (Ok v)
              | None -> k (violation t reply ("expected " ^ what)))))

  (* One seq-tagged command; [k] fires exactly once with its answer. *)
  let command t cmd ~what decode k =
    match t.failed with
    | Some e -> k (Result.Error e)
    | None ->
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        expect t seq ~what decode k;
        Evloop.Outbuf.add t.out (Protocol.render_command ~seq cmd ^ "\n")

  (* One decoded frame: route it by seq to the continuation waiting on it. *)
  let dispatch t (f : Protocol.Frames.frame) =
    let seq = Option.value ~default:0 f.seq in
    match Hashtbl.find_opt t.pending seq with
    | None -> ignore (violation t f.reply "reply for no pending command")
    | Some k ->
        Hashtbl.remove t.pending seq;
        k (Ok f)

  let rec drain_frames t =
    if t.failed <> None then ()
    else
      match Protocol.Frames.next t.frames with
      | `Await -> ()
      | `Error reason ->
          ignore
            (fail t (Error.Protocol_violation { line = "<stream>"; reason }))
      | `Frame f ->
          dispatch t f;
          drain_frames t

  let read_ready t =
    let rec go () =
      if t.failed <> None then ()
      else
        match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
        | 0 -> ignore (transport_lost t)
        | n ->
            Protocol.Frames.feed t.frames (Bytes.sub_string t.buf 0 n);
            drain_frames t;
            go ()
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (_, _, _) -> ignore (transport_lost t)
    in
    go ()

  let flush_out t =
    match Evloop.Outbuf.flush t.out t.fd with
    | `All | `Partial -> Ok ()
    | `Closed -> transport_lost t

  let pump ?(timeout_ms = 0) t =
    match t.failed with
    | Some e -> Result.Error e
    | None -> (
        match flush_out t with
        | Result.Error _ as e -> e
        | Ok () -> (
            match
              Evloop.wait_fd t.fd ~read:true ~write:(has_output t) ~timeout_ms
            with
            | None -> Ok ()
            | Some ev ->
                if ev.readable then read_ready t;
                (match t.failed with
                | Some e -> Result.Error e
                | None -> if ev.writable then flush_out t else Ok ())))

  (* The blocking shape of a command: start it, then pump until its
     continuation fires. A terminal [pump] error has already answered
     every continuation, so the default is never taken. *)
  let await t start =
    let answer = ref None in
    start (fun r -> answer := Some r);
    let rec go () =
      match !answer with
      | Some r -> r
      | None -> (
          match pump ~timeout_ms:(-1) t with
          | Ok () -> go ()
          | Result.Error e -> Option.value !answer ~default:(Result.Error e))
    in
    go ()

  let connect ?max_payload ~socket () =
    (* A daemon that hangs up must surface as a typed transport error
       from the write that finds it gone (EPIPE), not as a SIGPIPE
       that kills the process — the same disposition [Server.run] takes. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let give_up e =
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      Result.Error e
    in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | exception Unix.Unix_error (e, _, _) ->
        give_up
          (Error.Server_unavailable { socket; message = Unix.error_message e })
    | () -> (
        Unix.set_nonblock fd;
        let t =
          {
            socket;
            fd;
            frames = Protocol.Frames.create ?max_payload ();
            out = Evloop.Outbuf.create ();
            buf = Bytes.create 65536;
            pending = Hashtbl.create 64;
            next_seq = 1;
            failed = None;
            version = 0;
            workers = 0;
            queue_max = 0;
          }
        in
        match await t (expect t 0 ~what:"greeting" greeting) with
        | Result.Error e -> give_up e
        | Ok (version, _, _) when version <> Protocol.version ->
            give_up
              (Error.Protocol_violation
                 {
                   line = Printf.sprintf "mcd-serve/%d" version;
                   reason =
                     Printf.sprintf "unsupported protocol version (want %d)"
                       Protocol.version;
                 })
        | Ok (version, workers, queue_max) ->
            t.version <- version;
            t.workers <- workers;
            t.queue_max <- queue_max;
            Ok t)

  let close t =
    (match t.failed with
    | Some _ -> ()
    | None ->
        Evloop.Outbuf.add t.out (Protocol.render_command Protocol.Quit ^ "\n");
        ignore (flush_out t);
        t.failed <-
          Some
            (Error.Server_unavailable
               { socket = t.socket; message = "connection closed locally" }));
    try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()

  let submit ~priority t request k =
    command t (Protocol.Submit { priority; request }) ~what:"queued" queued k

  let run ?(priority = Protocol.Normal) t request ~k =
    submit ~priority t request (function
      | Result.Error e -> k (Result.Error e)
      | Ok { id; _ } ->
          command t (Protocol.Wait id) ~what:"status" job_state (function
            | Result.Error e -> k (Result.Error e)
            (* terminal either way: [result] answers with the payload
               or the job's typed failure *)
            | Ok _ -> command t (Protocol.Result id) ~what:"payload" payload k))
end

(* --- blocking calls: one pumped command each ----------------------------- *)

type t = Pipeline.t

let connect ~socket = Pipeline.connect ~socket ()
let close = Pipeline.close
let version = Pipeline.version
let workers = Pipeline.workers
let queue_max = Pipeline.queue_max
let call t cmd ~what decode = Pipeline.(await t (command t cmd ~what decode))
let ping t = call t Protocol.Ping ~what:"pong" pong

let submit ?(priority = Protocol.Normal) t request =
  Pipeline.(await t (submit ~priority t request))

let status t id = call t (Protocol.Status id) ~what:"status" job_state
let wait t id = call t (Protocol.Wait id) ~what:"status" job_state
let result t id = call t (Protocol.Result id) ~what:"payload" payload

let run ?priority t request =
  Pipeline.(await t (fun k -> run ?priority t request ~k))

let stats t = call t Protocol.Stats ~what:"stats-payload" stats_body
let drain t = call t Protocol.Drain ~what:"draining" draining

(* --- retry layer -------------------------------------------------------- *)

type retry_policy = {
  max_attempts : int;
  base_delay_ms : int;
  max_delay_ms : int;
  seed : int option;
  sleep : float -> unit;
}

let default_policy =
  {
    max_attempts = 8;
    base_delay_ms = 50;
    max_delay_ms = 5_000;
    seed = None;
    sleep = Unix.sleepf;
  }

(* With no explicit seed, each retry loop draws its own jitter stream —
   pid-mixed so a fleet of clients restarting against the same downed
   server spreads out instead of thundering in lockstep (a shared
   constant seed would synchronize exactly the schedules the jitter
   exists to desynchronize). *)
let auto_seed_counter = Atomic.make 0

let auto_seed () =
  (Unix.getpid () * 1_000_003) + Atomic.fetch_and_add auto_seed_counter 1

(* The retryable class is transient service states — the server is full,
   leaving, restarting, or gone — plus [Unknown_job], which a restarted
   server reports for a job that completed (and was compacted away)
   before the crash: resubmitting hits the content-addressed store and
   returns the same bytes. Everything else is a verdict about the
   request itself, and retrying would only repeat it. *)
let retryable : Error.t -> bool = function
  | Error.Overloaded _ | Error.Draining _ | Error.Server_unavailable _
  | Error.Unknown_job _ ->
      true
  | _ -> false

let retry_after_hint : Error.t -> int option = function
  | Error.Overloaded { retry_after_ms; _ } -> Some retry_after_ms
  | _ -> None

(* Capped exponential backoff with full jitter: attempt [k] sleeps a
   uniform draw from [0, min (base * 2^k) cap], floored at the server's
   retry-after hint when one was given. Deterministic per explicit
   [seed] (the chaos harness replays byte-identical schedules). *)
let backoff_ms policy rng ~attempt ~hint =
  let expo =
    let rec go k acc =
      if k <= 0 || acc >= policy.max_delay_ms then acc else go (k - 1) (acc * 2)
    in
    go attempt policy.base_delay_ms
  in
  let ceiling = min policy.max_delay_ms expo in
  let jittered = Mcd_util.Rng.int rng (max 1 ceiling) in
  match hint with
  | None -> jittered
  | Some h -> max jittered (min policy.max_delay_ms h)

(* A job-level rejection ([Overloaded], [Draining], [Unknown_job])
   arrives on a healthy connection — the framing is intact, only the
   verdict was transient — so the retry reuses the connection instead
   of paying connect + greeting again. Only transport failures
   ([Server_unavailable]: refused connect, severed socket) force a
   reconnect; anything else that smells of desync ([Protocol_violation])
   is terminal and never retried. *)
let run_with_retry ?priority ?(policy = default_policy) ~socket request =
  let rng =
    Mcd_util.Rng.create
      (match policy.seed with Some s -> s | None -> auto_seed ())
  in
  let conn = ref None in
  let drop () =
    match !conn with
    | None -> ()
    | Some t ->
        conn := None;
        close t
  in
  let attempt_once () =
    match !conn with
    | Some t -> run ?priority t request
    | None -> (
        match connect ~socket with
        | Result.Error e -> Result.Error e
        | Ok t ->
            conn := Some t;
            run ?priority t request)
  in
  let rec go attempt =
    match attempt_once () with
    | Ok payload ->
        drop ();
        Ok payload
    | Result.Error e when retryable e && attempt + 1 < policy.max_attempts ->
        (match e with Error.Server_unavailable _ -> drop () | _ -> ());
        let ms = backoff_ms policy rng ~attempt ~hint:(retry_after_hint e) in
        policy.sleep (float_of_int ms /. 1000.0);
        go (attempt + 1)
    | Result.Error _ as e ->
        drop ();
        e
  in
  go 0
