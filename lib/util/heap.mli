(** Imperative binary min-heap on integer keys.

    Backbone of the discrete-event engine's pending-event queue and the TCP
    runtime's timers.  Keys, insertion numbers and values sit in parallel
    arrays, so a push allocates nothing until the heap grows.  Ties on the
    key pop in insertion order, so simulation runs are deterministic. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> key:int -> 'a -> unit
(** Entries with equal keys pop in the order they were pushed. *)

val top : 'a t -> 'a
(** The value with the smallest key, left in place.
    @raise Invalid_argument on an empty heap. *)

val pop_exn : 'a t -> 'a
(** Remove and return the value with the smallest key.
    @raise Invalid_argument on an empty heap. *)

val retain : 'a t -> ('a -> bool) -> unit
(** Drop every entry whose value fails the predicate, in O(n).  The kept
    entries pop in the same order as before: keys and insertion order
    together order every entry strictly. *)
