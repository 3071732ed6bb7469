(** Inter-domain synchronization, after Sjogren & Myers.

    When a value crosses a domain boundary it is captured by the first
    consumer clock edge following its production — unless the producing
    edge falls within the synchronization window (30% of the faster
    clock's period) of a consumer edge on either side, in which case
    capture slips one further consumer cycle. This is the mechanism that
    gives the MCD baseline its inherent ~1.3% performance cost. *)

val window_fraction : float
(** 0.30. *)

type stats = { mutable crossings : int; mutable penalties : int }

val create_stats : unit -> stats

val arrival :
  stats ->
  consumer:Clock.t ->
  producer_period_ps:int ->
  t:Mcd_util.Time.t ->
  Mcd_util.Time.t
(** [arrival stats ~consumer ~producer_period_ps ~t] is the time at
    which a value produced at [t] (on a producer edge) becomes visible in
    the consumer domain. Every call counts one crossing in [stats], and
    one penalty when the capture slips a cycle. *)
