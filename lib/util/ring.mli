(** A bounded memo ring: the latest [n] entries, each new one taking the
    oldest's slot.

    The checkpoint-image, batch-digest, KV-merge, KV-operation and
    received-envelope memos keep their entries here.  A lookup is a scan
    with a two-key predicate, so a top-level predicate and a hit allocate
    nothing. *)

type 'e t

val create : int -> 'e t
(** An empty ring of [n] slots.  @raise Invalid_argument if [n < 1]. *)

val push : 'e t -> 'e -> unit
(** Hold an entry in place of the oldest once the ring is full. *)

val find : 'e t -> ('a -> 'b -> 'e -> bool) -> 'a -> 'b -> 'e option
(** [find t p a b] is a held [Some e] with [p a b e], the slot's own
    option, or [None]. *)

val length : 'e t -> int
(** Entries held now; never more than the ring's size. *)
