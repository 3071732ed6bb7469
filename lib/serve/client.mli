(** Client for the experiment daemon.

    One protocol state machine, {!Pipeline}: a non-blocking connection
    on which every command carries a [seq] tag and waits as a
    continuation for the reply that echoes it. The blocking calls below
    — the shape the CLI subcommands and the smoke harness
    ([tools/harness.ml]) need — are each one such command, pumped until
    its reply arrives. Each call maps a {!Protocol} exchange to a typed
    result; server-side rejections come back as the corresponding
    {!Mcd_robust.Error.t} (so [Overloaded] carries its retry-after hint
    and exits with the overload code), transport failures as
    [Server_unavailable], and a malformed or oversized frame as
    [Protocol_violation]. Connecting ignores SIGPIPE process-wide, so a
    daemon that hangs up surfaces as [Server_unavailable], never as a
    fatal signal. *)

type t

val connect : socket:string -> (t, Mcd_robust.Error.t) result
(** Connect and consume the greeting ({!Pipeline.connect}).
    [Server_unavailable] when nothing listens; [Protocol_violation]
    when the peer speaks something other than protocol version
    {!Protocol.version}. *)

val close : t -> unit
(** Sends [quit] (best effort) and closes the connection. *)

val version : t -> int
val workers : t -> int
val queue_max : t -> int
(** Fields of the server's greeting. *)

val ping : t -> (unit, Mcd_robust.Error.t) result

type ticket = { id : int; digest : string; coalesced : bool }

val submit :
  ?priority:Protocol.priority ->
  t ->
  Protocol.request ->
  (ticket, Mcd_robust.Error.t) result
(** [priority] defaults to [Normal]. [coalesced] is true when the
    request attached to an existing job instead of enqueueing. *)

val status : t -> int -> (Protocol.state, Mcd_robust.Error.t) result

val wait : t -> int -> (Protocol.state, Mcd_robust.Error.t) result
(** Blocks until the job is terminal (the server parks the
    connection). *)

val result : t -> int -> (string, Mcd_robust.Error.t) result
(** The job's payload bytes. [Runtime_fault] for a failed job,
    [Protocol_violation] for an unknown or unfinished one. *)

val run :
  ?priority:Protocol.priority ->
  t ->
  Protocol.request ->
  (string, Mcd_robust.Error.t) result
(** [submit] + [wait] + [result]: the one-call request path. *)

val stats : t -> (string, Mcd_robust.Error.t) result
(** The server's metrics registry as JSON lines
    ({!Mcd_obs.Export.metrics_jsonl}), including the mirrored
    [store.*] gauges. *)

val drain : t -> (unit, Mcd_robust.Error.t) result
(** Ask the server to stop admitting, finish in-flight work, and
    exit. *)

(** {2 Retrying requests}

    A request loop that survives server restarts. Job-level transient
    rejections ([Overloaded], [Draining], [Unknown_job]) arrive on a
    healthy connection, so their retries reuse it — no reconnect tax;
    a transport failure ([Server_unavailable]) drops the connection
    and the next attempt reconnects. A severed-mid-wait resubmit
    either coalesces onto the job the restarted server replayed from
    its journal, or (if the job completed and was compacted away) hits
    the content-addressed store and returns the same bytes. *)

type retry_policy = {
  max_attempts : int;  (** total attempts, including the first *)
  base_delay_ms : int;  (** backoff scale for attempt 0 *)
  max_delay_ms : int;
      (** ceiling on any single sleep, including server hints *)
  seed : int option;
      (** jitter stream ({!Mcd_util.Rng}). [Some s] is deterministic —
          the chaos harness replays byte-identical schedules; [None]
          derives a fresh pid-mixed seed per call, so independent
          clients never share a jitter schedule (a fleet retrying in
          lockstep is the thundering herd jitter exists to prevent) *)
  sleep : float -> unit;  (** seconds; tests stub this out *)
}

val default_policy : retry_policy
(** 8 attempts, 50ms base, 5s cap, auto seed ([None]),
    [Unix.sleepf]. *)

val retryable : Mcd_robust.Error.t -> bool
(** [Overloaded], [Draining], [Server_unavailable] and [Unknown_job]
    are transient service states; everything else is a verdict about
    the request and is returned as-is. *)

val run_with_retry :
  ?priority:Protocol.priority ->
  ?policy:retry_policy ->
  socket:string ->
  Protocol.request ->
  (string, Mcd_robust.Error.t) result
(** {!run} under capped exponential backoff with full jitter, floored
    at the server's [retry_after_ms] hint when an [Overloaded]
    rejection carries one. Returns the last error once
    [policy.max_attempts] attempts are spent or a terminal error
    appears. *)

(** {2 Pipelined connections}

    Many requests in flight on one socket. Every command carries a
    [seq] tag; the server echoes it on the answering reply — including
    [wait] answers deferred until the job turns terminal — so replies
    for different requests interleave in completion order and are
    routed back by tag. Each {!Pipeline.run} chains the
    submit → wait → result commands, one round-trip per phase but
    overlapped across requests, which is where the pipelined
    throughput multiple comes from; the blocking {!run} is one
    {!Pipeline.run} pumped to completion.

    The connection is non-blocking and single-threaded: callbacks fire
    inside {!Pipeline.pump} on the caller's thread. Drive many
    connections from one loop via {!Pipeline.fd} and external
    readiness, or just {!Pipeline.pump} each in turn. *)
module Pipeline : sig
  type t

  val connect :
    ?max_payload:int -> socket:string -> unit -> (t, Mcd_robust.Error.t) result
  (** Connect, switch to non-blocking, and pump until the greeting
      arrives. [max_payload] bounds any single reply body
      (default {!Protocol.Frames.default_max_payload}). *)

  val close : t -> unit
  (** Best-effort [quit], then close. In-flight callbacks never fire
      after [close]. *)

  val version : t -> int
  val workers : t -> int
  val queue_max : t -> int

  val fd : t -> Unix.file_descr
  (** For external readiness multiplexing across many connections. *)

  val in_flight : t -> int
  (** Requests submitted whose callback has not yet fired. *)

  val has_output : t -> bool
  (** Rendered commands not yet accepted by the socket. *)

  val run :
    ?priority:Protocol.priority ->
    t ->
    Protocol.request ->
    k:((string, Mcd_robust.Error.t) result -> unit) ->
    unit
  (** Start a request; [k] fires exactly once, from a later {!pump},
      with the payload or the typed error ({!run}'s result shape).
      After a transport failure every pending [k] fires with the
      error and new [run]s fail immediately. *)

  val pump : ?timeout_ms:int -> t -> (unit, Mcd_robust.Error.t) result
  (** Flush pending output, wait up to [timeout_ms] (default 0: just
      poll) for socket readiness, read and dispatch any completed
      replies. [Error] is terminal: the transport or framing is gone
      and all pending callbacks have been failed. *)
end
