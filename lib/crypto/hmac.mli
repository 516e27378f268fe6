(** HMAC keyed message authentication (RFC 2104).

    Used by the mock signature scheme: in simulation runs we authenticate
    messages with HMAC under per-node keys held by a trusted keyring instead
    of paying for public-key operations on every message (the timing cost of
    the real schemes is charged separately by the simulator's cost model).

    Every MAC takes the precomputed-key form of RFC 2104 §4: a {!keyed}
    value holds the chaining words after the [key xor ipad] and [key xor
    opad] blocks, which saves two compressions per MAC. *)

type keyed
(** Immutable, so one value may serve any number of threads. *)

val keyed : alg:Digest_alg.t -> string -> keyed
(** Keys longer than the 64-byte block are hashed first, per the RFC. *)

val tag : keyed -> string -> string

val check : keyed -> msg:string -> tag:string -> pos:int -> bool
(** Whether the digest-size bytes of [tag] at [pos] are the MAC of [msg],
    compared in constant time and in place; [false] if they do not fit. *)

val mac : alg:Digest_alg.t -> key:string -> string -> string
(** [mac ~alg ~key msg] is [tag (keyed ~alg key) msg]. *)

val verify : alg:Digest_alg.t -> key:string -> msg:string -> tag:string -> bool
(** Constant-time comparison of [tag] against the recomputed MAC. *)
