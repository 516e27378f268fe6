(** SHA-1 message digest (FIPS 180-1 / RFC 3174).

    Used by the paper's third crypto configuration (SHA1 with DSA-1024) and
    as the digest inside our DSA implementation.  SHA-1 is deprecated for new
    designs; it is implemented to reproduce the paper's configuration. *)

val digest : string -> string
(** [digest msg] is the 20-byte SHA-1 digest of [msg]. *)

val hex : string -> string
(** [hex msg] is the digest as 40 lower-case hex characters. *)

val md : Merkle_damgard.t
(** The block function, for streaming with {!Merkle_damgard}. *)
