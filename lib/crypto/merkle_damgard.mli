(** The Merkle–Damgård block feeder MD5, SHA-1 and SHA-256 share: 64-byte
    blocks, compressed straight from the input when whole, then [0x80],
    zeros and the 64-bit bit length in the hash's byte order. *)

val block_size : int

type t = {
  iv : int array;  (** Initial chaining words, each in [0, 2{^32}). *)
  big_endian : bool;  (** Byte order of the length and of the digest. *)
  compress : int array -> int array -> Bytes.t -> int -> unit;
      (** [compress h w src off] folds the block at [off] in [src] into the
          chaining words [h], with the 16 words of [w] as scratch: the
          block's words, then the message schedule's last 16. *)
}

type ctx
(** A streaming context.  It owns its scratch, so contexts may run on
    different threads at once. *)

val init : t -> ctx
val feed : ctx -> string -> unit

val feed_sub : ctx -> string -> int -> int -> unit
(** [feed_sub ctx s off len] feeds the [len] bytes of [s] from [off], as
    [feed ctx (String.sub s off len)] would, without copying them out.
    @raise Invalid_argument when the range is not within [s]. *)

val finalize : ctx -> string
(** The context may be reused only after {!resume}. *)

val digest : t -> string -> string

type chain
(** Immutable chaining words at a block boundary. *)

val chain : ctx -> chain
(** @raise Invalid_argument unless whole blocks have been fed. *)

val resume : ctx -> chain -> unit
(** Continue from [chain], which must come from the same hash. *)
