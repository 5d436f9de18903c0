(** Growable arrays (the stdlib gains [Dynarray] only in OCaml 5.2).

    The [dummy] element fills unused capacity; it is never observable
    through the API. *)

type 'a t

val create : dummy:'a -> 'a t
val length : 'a t -> int

(** Remove all elements (capacity is retained). *)
val clear : 'a t -> unit

val push : 'a t -> 'a -> unit

(** @raise Invalid_argument on out-of-bounds access. *)
val get : 'a t -> int -> 'a

(** @raise Invalid_argument on out-of-bounds access. *)
val set : 'a t -> int -> 'a -> unit

(** Remove and return the last element.
    @raise Invalid_argument when empty. *)
val pop : 'a t -> 'a

val iter : ('a -> unit) -> 'a t -> unit
val to_array : 'a t -> 'a array
val of_array : dummy:'a -> 'a array -> 'a t
