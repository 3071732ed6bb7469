(** Growable arrays (OCaml 5.1 has no [Dynarray] yet).

    Used for event logs and call-tree node stores, where sizes are not
    known in advance and random access is required. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : 'a list -> 'a t
val clear : 'a t -> unit
