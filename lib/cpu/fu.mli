(** Functional-unit pools.

    A pool holds [count] units with a fixed latency in owning-domain
    cycles. Pipelined pools (ALUs) accept a new operation every cycle
    per unit; unpipelined pools (multipliers) occupy the unit for the
    full latency. *)

type t

val create : count:int -> latency_cycles:int -> pipelined:bool -> t

val try_issue : t -> now:Mcd_util.Time.t -> period_ps:int -> Mcd_util.Time.t
(** Attempt to claim a unit at [now] in a domain whose current period is
    [period_ps]. Returns the completion time of the operation, or [-1]
    if every unit is busy. *)

val next_free : t -> Mcd_util.Time.t
(** The earliest time at which some unit accepts work. Only an issue
    moves it. *)

val latency_cycles : t -> int
val operations : t -> int
