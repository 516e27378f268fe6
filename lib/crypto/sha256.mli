(** SHA-256 message digest (FIPS 180-2).

    Not one of the paper's 2006 configurations; used internally by the mock
    signature scheme (HMAC-SHA256) and available as a modern digest option. *)

val digest : string -> string
(** [digest msg] is the 32-byte SHA-256 digest of [msg]. *)

val hex : string -> string
(** [hex msg] is the digest as 64 lower-case hex characters. *)

val md : Merkle_damgard.t
(** The block function, for streaming with {!Merkle_damgard}. *)
