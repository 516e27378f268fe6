(** Trusted-dealer key management (paper, Assumption 2).

    The paper assumes "a trusted dealer initializes the system and the nodes
    with cryptographic keys and hash functions".  A keyring is that dealer's
    output: per-node signing keys plus everything needed to verify any node's
    signature.

    Non-forgeability is enforced at the API: [sign t ~signer msg] is the only
    way to produce node [signer]'s signature, and the simulator only lets a
    node call it with its own identity.  A Byzantine node can therefore emit
    wrong {e contents} but cannot fake another node's endorsement — exactly
    the cryptography-constrained Byzantine model.  HMAC keys become
    immutable {!Hmac.keyed} states on first use, not at {!create}, so
    threads may share one keyring, as the TCP runtime's do. *)

type t

type auth = Sign | Mac
(** Wire-authentication mode the dealer provisions for.  [Sign] (default)
    authenticates every message with the scheme mechanism alone.  [Mac]
    additionally provisions a symmetric pairwise key matrix so the hot path
    can use authenticator vectors ({!sign_vector}/{!verify_vector}) while
    the scheme keys stay available for transferable signatures. *)

val auth_name : auth -> string

val tag_size : int
(** Bytes per MAC tag (HMAC-SHA256): one authenticator-vector entry. *)

val create :
  ?key_bits:int ->
  ?auth:auth ->
  scheme:Scheme.t -> rng:Sof_util.Rng.t -> node_count:int -> unit -> t
(** Provision keys for nodes [0 .. node_count-1] under [scheme].  For real
    RSA/DSA mechanisms [key_bits] overrides the scheme's nominal key size so
    tests can run with small, fast keys; the default is the scheme's size.
    All DSA nodes share one set of domain parameters, as a dealer would
    arrange.  Under [~auth:Mac] — or whenever the scheme mechanism is
    [Mac_vector] — the dealer also installs one shared 32-byte HMAC key per
    unordered node pair (paper Assumption 2 extends verbatim: the trusted
    dealer hands out symmetric keys exactly as it hands out signature
    keys). *)

val scheme : t -> Scheme.t

val node_count : t -> int

val signature_size : t -> int
(** Wire size of one signature in bytes (0 for the unsigned scheme).  For
    real mechanisms this is derived from the actual key size in use, which
    differs from [ (scheme t).costs.signature_bytes ] when [key_bits]
    overrides the nominal size. *)

val mac_provisioned : t -> bool
(** Whether the pairwise MAC matrix exists (see {!create}). *)

val vector_size : t -> int
(** Wire size of one authenticator vector: [node_count * 32] bytes. *)

val sign : t -> signer:int -> string -> string
(** Sign with the scheme mechanism ([Mac_vector] schemes produce a full
    authenticator vector, their only signature form).
    @raise Invalid_argument when [signer] is out of range. *)

val verify : ?verifier:int -> t -> signer:int -> msg:string -> signature:string -> bool
(** Total: returns [false] on malformed signatures or out-of-range ids.
    A mock signature padded to a larger scheme's size must have all-zero
    padding.  [verifier] matters only for [Mac_vector] schemes: given, the check
    covers that receiver's entry alone (what a real node can do); omitted,
    every entry must verify (the dealer's omniscient view, for tests). *)

val sign_vector : t -> signer:int -> string -> string
(** Authenticator vector over the pairwise matrix: the concatenation, in
    node order, of one HMAC-SHA256 tag per receiver under the key [signer]
    shares with it.  Producing node [signer]'s vector requires its row of
    the matrix, so — as with {!sign} — the API is the non-forgeability
    boundary.
    @raise Invalid_argument when [signer] is out of range or no MAC keys
    were provisioned. *)

val verify_vector :
  t -> verifier:int -> signer:int -> msg:string -> signature:string -> bool
(** Check the [verifier]'s own entry of [signer]'s vector — all a receiver
    holding only its own matrix row can ever check.  Total: [false] on
    malformed vectors, out-of-range ids, or a missing matrix. *)
