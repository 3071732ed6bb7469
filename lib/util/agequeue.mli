(** Fixed-capacity, age-ordered queues for simulator hot paths.

    An [Agequeue.t] holds elements in insertion (program) order inside a
    preallocated array: O(1) [push], O(1) occupancy via {!length}, and
    an in-place, order-preserving {!remove} for scans that issue entries
    as they walk them, with no allocation. It is the backing store for
    the pipeline's issue queues and load/store queue, where capacity is
    a hardware parameter and oldest-first scan order is the issue
    priority.

    A [dummy] element fills vacated slots so removed entries do not
    leak through the array. *)

type 'a t

val create : capacity:int -> dummy:'a -> 'a t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val length : 'a t -> int
val capacity : 'a t -> int
val is_empty : 'a t -> bool
val is_full : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append as youngest. Raises [Invalid_argument] when full — hardware
    occupancy checks must gate insertion, exactly as dispatch does. *)

val get : 'a t -> int -> 'a
(** [get t i] is the i-th oldest element. Raises [Invalid_argument]
    out of bounds. *)

val remove : 'a t -> int -> unit
(** [remove t i] drops the i-th oldest element; younger elements move
    down one slot, keeping age order, and the vacated slot is reset to
    [dummy]. An oldest-first scan that removes as it goes (the issue
    loops) stays on index [i] after a removal. Raises
    [Invalid_argument] out of bounds. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Oldest-first; for tests and debugging. *)
