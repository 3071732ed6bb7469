(** Simulated time in integer picoseconds.

    All clock arithmetic in the simulator is exact integer arithmetic on
    picoseconds: a 1 GHz clock has a 1000 ps period, the synchronization
    window of the MCD model is 300 ps, and the full voltage transition of
    55 us is 55_000_000 ps. OCaml's 63-bit integers overflow only after
    about 53 days of simulated time, far beyond any run. *)

type t = int
(** Picoseconds. Kept concrete for arithmetic convenience; use the
    constructors below rather than raw literals. *)

val zero : t

val ps : int -> t
val ns : int -> t
val us : int -> t

val of_ns_float : float -> t
(** Round a nanosecond quantity to picoseconds. *)

val to_ns : t -> float
val to_us : t -> float
val to_s : t -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit. *)

(** {2 Host time} *)

val now_s : unit -> float
(** Seconds on the host's CLOCK_MONOTONIC, from an arbitrary origin.
    Unlike [Unix.gettimeofday] it never steps when the wall clock is
    set, so differences of two reads are safe for deadlines, timeouts
    and latencies. Host time, not simulated time. *)
