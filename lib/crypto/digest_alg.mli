(** Digest algorithm selection.

    The paper evaluates two digest functions (MD5 and SHA-1); this module
    lets the rest of the system pick one by value. *)

type t = MD5 | SHA1 | SHA256

val size : t -> int
(** Digest length in bytes. *)

val digest : t -> string -> string

val md : t -> Merkle_damgard.t
(** The algorithm's block function, for streaming and keyed use. *)

val name : t -> string
(** ["md5"], ["sha1"] or ["sha256"]. *)

val of_name : string -> t
(** Inverse of {!name}.  @raise Invalid_argument on unknown names. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
