(** The experiment daemon: a Unix-domain stream socket speaking
    {!Protocol} version {!Protocol.version}, fed by a {!Scheduler}.

    One single-threaded readiness-driven event loop (poll(2), so the
    connection count is not bounded by [FD_SETSIZE]) owns every socket;
    worker domains never touch a file descriptor — a completing job
    pokes the loop through a self-pipe, and the loop answers any
    connection parked on a [wait] for that job. That split keeps the
    wire code free of locking entirely: the only shared state is the
    scheduler, behind its own mutex.

    {b Non-blocking throughout.} Sockets are non-blocking; reads
    accumulate into a per-connection line buffer, replies accumulate
    into a per-connection output buffer flushed as the socket accepts
    bytes ({!Evloop.Outbuf}), so a slow peer never stalls the loop — it
    is disconnected once {!config.outbuf_max_bytes} of output backs up.
    The poll timeout is deadline-driven (the next drain grace/deadline
    expiry, with a 60s idle backstop), not a fixed tick: an idle server
    burns no CPU, and a completion wakes a parked [wait] in
    single-digit milliseconds. Pipelined commands carrying [seq] tags
    are answered with the tag echoed, in whatever order their jobs
    finish; a connection may park at most
    {!config.conn_inflight_max} waits before further [wait]s are
    refused [Overloaded]. Loop health is exported as [serve.loop.*]
    instruments (poll dwell and iteration histograms, wakeup /
    partial-write / slow-reader-close counters, a connection gauge).

    {b Lifecycle.} [SIGTERM]/[SIGINT] (or a client's [drain] command)
    close admission: queued and running jobs complete, parked waiters
    are answered, and the server exits once idle and clients have hung
    up — after a short grace so a client can still fetch the result of
    a job that finished during the drain. A deadline watchdog bounds
    the whole drain ({!config.drain_deadline_s}): like
    {!Mcd_robust.Degrade}'s fallback, a stuck drain degrades to a
    prompt exit rather than a hang, because the persistent store
    already holds every completed payload — a warm restart re-serves
    the same bytes.

    {b Stale sockets.} A leftover socket file from a killed server is
    detected by probing it: connection-refused means stale, so it is
    unlinked and rebound; an answering socket means another server is
    live, reported as {!Mcd_robust.Error.Server_unavailable}. Two
    servers racing through that probe are serialized by an exclusive
    lock on [socket.lock] held for the server's lifetime — the loser
    gets [Server_unavailable], never a stolen socket file.

    {b Crash safety.} With {!config.journal} set, every accepted submit
    is appended (fsynced) to a write-ahead job journal {e before} the
    [queued] ack is sent, and completions append [done]/[fail] records.
    A restarted server replays the journal's incomplete jobs — original
    ids preserved — before accepting connections, so an acknowledged
    job is eventually served (byte-identically, via the
    content-addressed store) even across [SIGKILL]. The journal
    compacts on open and degrades to journal-less serving (with a typed
    diagnostic on stderr) rather than refusing to start. *)

type config = {
  socket : string;
  workers : int;  (** worker domains (default 2) *)
  queue_max : int;  (** global queued-job bound (default 64) *)
  client_max : int;  (** per-client queued-job bound (default 16) *)
  conn_inflight_max : int;
      (** per-connection parked-[wait] bound: a pipelined client may
          keep at most this many waits in flight on one socket before
          further [wait]s are refused [Overloaded] (default 128) *)
  outbuf_max_bytes : int;
      (** slow-reader bound: a connection whose unflushed output
          exceeds this is disconnected (default 16 MiB) *)
  trace_dir : string option;
      (** when set, {!Mcd_obs.Export.write_dir} the sink there on
          exit *)
  drain_grace_s : float;
      (** after the last job finishes, how long to keep answering
          connected clients before closing (default 1s) *)
  drain_deadline_s : float;
      (** hard bound on the whole drain (default 60s) *)
  journal : string option;
      (** write-ahead job journal path; [None] disables journaling
          (defaults to [serve.journal] in the default store's
          directory, or [None] when no store is configured) *)
  deadline_s : float option;
      (** per-job compute deadline — see {!Scheduler.create}
          (default [None]: no watchdog) *)
  retry_after_cap_ms : int;
      (** ceiling on the EWMA retry-after hint (default 10000) *)
}

val default_journal_path : unit -> string option
(** [serve.journal] inside {!Mcd_cache.Store.default}'s directory —
    the journal lives beside the payloads it protects — or [None] when
    no default store is configured. *)

val default_config : socket:string -> config

val resolve :
  Protocol.request ->
  (Mcd_control.Policy.t * Mcd_workloads.Workload.t, string) result
(** Validate a wire request against the workload suite and context
    table and resolve its policy through
    {!Mcd_experiments.Runner.policy_of_name}. [Error reason] becomes a
    [Bad_request] rejection. *)

val request_digest : Protocol.request -> (string, string) result
(** Digest of {!Mcd_experiments.Runner.policy_key} for a resolvable
    request — the coalescing identity, equal to the persistent-store
    address of the run's payload. *)

val compute : Protocol.request -> string
(** Run the request via {!Mcd_experiments.Runner.policy_run} and
    return {!Mcd_power.Metrics.encode} of the result — the same bytes
    a one-shot CLI run caches. Raises on unresolvable requests (the
    server rejects those before they reach a worker). *)

val run :
  ?digest:(Protocol.request -> (string, string) result) ->
  ?compute:(Protocol.request -> string) ->
  config ->
  (unit, Mcd_robust.Error.t) result
(** Bind, serve until drained, clean up (socket unlinked, scheduler
    shut down, trace exported). [digest] and [compute] default to
    {!request_digest} and {!compute}; tests override them to inject
    faults or canned payloads. Returns typed errors for bind/listen
    failures. *)
