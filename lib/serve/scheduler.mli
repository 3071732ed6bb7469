(** Concurrent job scheduler: priority queue → worker pool → job table,
    with in-flight request coalescing and admission control.

    Workers are OCaml 5 domains (the same substrate as
    {!Mcd_util.Par}), long-lived so {!Mcd_experiments.Runner}'s
    domain-local memo tables amortize across requests — the whole point
    of serving simulations from a daemon instead of one-shot processes.

    {b Coalescing.} Every request carries a content-addressed digest
    (see {!Mcd_experiments.Runner.policy_key}); a submit whose digest
    matches a job already in the table — queued, running, or finished —
    attaches to that job instead of enqueueing a duplicate. Concurrent
    identical requests ride one computation; late identical requests
    are answered from the finished job (whose payload the persistent
    store also holds).

    {b Admission control.} The queue is bounded globally and
    per-client ({!Jobq}); a rejected submit reports
    {!Protocol.Overloaded} with a retry-after hint derived from an
    exponential moving average of recent job latencies — the hint grows
    when the service is slow, so backoff adapts to load.

    {b Failure isolation.} A [compute] that raises marks its job
    [Failed] with the exception and the backtrace captured at the raise
    site (the {!Mcd_util.Par} convention) and frees the worker; the
    queue keeps draining. A fault can fail its own request, never the
    service.

    {b Deadlines.} With [deadline_s] set, a watchdog domain fails any
    job whose compute has run past the deadline with a typed
    {!Mcd_robust.Error.Deadline_exceeded} message and spawns a
    replacement worker — OCaml domains cannot be killed, so the stuck
    worker is left to finish as a zombie whose result is discarded and
    which retires on return, shrinking the pool back to size. A hung
    compute therefore costs one job, never the pool.

    {b Observability.} All counters/gauges/events land in the supplied
    {!Mcd_obs.Sink.t} ([serve.*] instruments, [Decision]/[Degraded]
    control-ring events); the sink is only ever touched under the
    scheduler mutex, so exports taken through {!with_registry} are
    consistent. *)

type state =
  | Queued
  | Running
  | Done of string
  | Failed of { message : string; backtrace : string }

type info = {
  id : int;
  digest : string;
  request : Protocol.request;
  priority : Protocol.priority;
  client : string;
  state : state;
  submits : int;  (** 1 + number of coalesced duplicates *)
  latency_s : float;  (** submit→terminal; 0 until terminal *)
  timed_out : bool;
      (** the job was failed by the deadline watchdog; its [Failed]
          message is the rendered {!Mcd_robust.Error.Deadline_exceeded} *)
}

type t

val create :
  ?workers:int ->
  ?queue_max:int ->
  ?client_max:int ->
  ?deadline_s:float ->
  ?retry_after_cap_ms:int ->
  ?sink:Mcd_obs.Sink.t ->
  ?on_complete:(int -> unit) ->
  compute:(Protocol.request -> string) ->
  unit ->
  t
(** Spawns [workers] (default 1) worker domains. [queue_max] defaults
    to 64 waiting jobs, [client_max] to 16. [deadline_s] (default none)
    arms the per-job deadline watchdog. [retry_after_cap_ms] (default
    10000, floor 100) caps the EWMA-derived retry-after hint so one
    latency spike cannot teach clients to stay away for minutes.
    [on_complete] fires after a job turns terminal, outside the
    scheduler lock — in the worker domain normally, in the watchdog
    domain for deadline failures; the server uses it to poke its event
    loop through a self-pipe. [sink] defaults to a fresh single-domain
    sink. *)

val workers : t -> int
val queue_max : t -> int
val sink : t -> Mcd_obs.Sink.t

val latency_bins : int
(** Bin count of the power-of-two millisecond histograms ([serve.latency_ms],
    [serve.loop.*]): bin [i] covers [[2{^i} − 1, 2{^i+1} − 1)] ms, the last
    bin open-ended. *)

val latency_bin_of_ms : int -> int
(** The bin a millisecond value falls into (clamped to the last bin). *)

type admission =
  | Accepted of info
  | Coalesced of info
  | Rejected of Protocol.reject

val submit :
  t ->
  client:string ->
  priority:Protocol.priority ->
  digest:string ->
  Protocol.request ->
  admission

val restore : t -> next_id:int -> Journal.entry list -> int
(** Re-queue jobs recovered from the {!Journal}, preserving their
    original ids (a client reconnecting after a crash polls the id it
    was acked with) and advancing the id counter to at least [next_id]
    — the journal's {!Journal.recovery.next_id} high-water mark, which
    floors fresh allocations even when nothing replays, so ids of jobs
    that completed before the crash are never reissued to new
    submissions. Bypasses admission bounds — these jobs were admitted
    once already and must not be dropped to a smaller restart
    configuration. Entries whose id is already in the table are
    skipped; returns the number restored. Call before accepting
    connections. *)

val retry_after_ms : t -> int
(** The current backoff hint: EWMA latency in ms, floored at 100,
    capped at [retry_after_cap_ms]. Exposed for tests. *)

val find : t -> int -> info option

val queue_depth : t -> int
val busy : t -> int

val idle : t -> bool
(** No queued work and no busy worker. *)

val set_draining : t -> unit
(** Stop admitting: every subsequent {!submit} is [Rejected Draining].
    Queued and running jobs still complete. *)

val draining : t -> bool

val await_idle : ?timeout_s:float -> t -> bool
(** Poll until {!idle} (drain watchdog); [false] on timeout
    (default 60s). *)

val wait_job : ?timeout_s:float -> t -> int -> info option
(** Poll until the job is terminal; [None] on unknown job or timeout
    (default 60s). Convenience for in-process callers and tests — the
    server never blocks here. *)

val with_registry : t -> (Mcd_obs.Metrics.t -> 'a) -> 'a
(** Run [f] on the sink's registry under the scheduler mutex — the only
    safe way to read or extend it while workers are live. *)

val export_metrics : t -> string
(** {!Mcd_obs.Export.metrics_jsonl} of the sink, rendered under the
    scheduler mutex. *)

val shutdown : t -> unit
(** Stop the workers and join their domains. Idempotent. Queued jobs
    that never ran stay [Queued]; call {!set_draining} +
    {!await_idle} first for a graceful stop. *)
