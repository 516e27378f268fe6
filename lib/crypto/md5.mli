(** MD5 message digest (RFC 1321).

    The paper's first two crypto configurations take message digests with
    MD5.  MD5 is cryptographically broken for collision resistance today; it
    is implemented here to reproduce the paper's 2006-era configurations, not
    as a recommendation. *)

val digest : string -> string
(** [digest msg] is the 16-byte MD5 digest of [msg]. *)

val hex : string -> string
(** [hex msg] is the digest as 32 lower-case hex characters. *)

val md : Merkle_damgard.t
(** The block function, for streaming with {!Merkle_damgard}. *)
