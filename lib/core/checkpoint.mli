(** Checkpoint certificates and state-transfer entries.

    A checkpoint is a periodic fingerprint of the replicated service: at
    every [interval]-th delivered sequence number each process snapshots its
    application state and digests it together with the log anchor.  A
    checkpoint becomes {e stable} once certified — by a quorum of signatures
    for BFT (2f+1) and CT (f+1, unsigned under the crash-only model), or by
    the coordinator pair's double signature for SC/SCR (the signal-on-fail
    trust model: at most one member of a pair is faulty, so a doubly-signed
    checkpoint carries at least one correct signature).  A stable checkpoint
    bounds the paper's fig6 BackLog: everything at or below it may be
    truncated from the order log, and a lagging or restarted replica
    recovers by fetching the certified image plus the committed log suffix.

    This module holds only the data and its codec; certification and
    verification live in {!Recovery} (they need the message encoding, which
    in turn embeds these types). *)

type cert = {
  cp_seq : int;  (** Checkpointed sequence number (a multiple of the interval). *)
  cp_digest : string;  (** Digest of the state image at [cp_seq]. *)
  cp_proof : (int * string) list;
      (** (signer, signature) set over the encoded Checkpoint body.  A
          quorum for BFT/CT; the singleton first signature for SC/SCR. *)
  cp_endorsement : (int * string) option;
      (** SC/SCR pair mode: the counterpart's second signature over
          body-plus-first-signature, exactly as envelope endorsements. *)
}

type entry = {
  e_o : int;  (** Committed sequence number above the checkpoint. *)
  e_digest : string;  (** The digest under which [e_o] committed. *)
  e_requests : Sof_smr.Request.t list;
      (** Full request bodies, so a replica with an empty pool can deliver.
          Empty for null orders (gap fillers, Start placeholders). *)
}

val is_boundary : interval:int -> int -> bool
(** Whether a sequence number is a checkpoint boundary ([interval] > 0 and
    the number is a positive multiple of it). *)

val image_digest : Sof_crypto.Digest_alg.t -> string -> string
(** The digest a checkpoint certifies: over the raw state image bytes. *)

val image_window : int
(** How many boundary images a replica keeps, and how many distinct images
    an {!Images} memo holds by default: 4. *)

val batch_window : int
(** How many distinct batch encodings a driver's batch-digest memo holds:
    16, enough for every replica to deliver a batch before its digest is
    let go. *)

(** A driver's memo of the digests its replicas compute over the same bytes.

    Correct replicas wrap byte-identical images at a boundary, and a state
    transfer ships one of them again; they also digest each batch they
    mint, validate, deliver, serve or replay, and their peers digest the
    same batches.  So the n replicas of one driver would each hash the same
    bytes.  A memo keeps the last [window] distinct byte strings with their
    digests.  A driver (a simulated cluster, a model-checker model, a TCP
    runtime) holds one memo for all its replicas' checkpoint images and one
    for their batches, and the replica kernel asks them for every image and
    batch digest.  The virtual price of a digest is charged by the caller
    either way.  The image memo also wraps each boundary's state and marks
    once ({!wrap}) and checksums each image's frame head once
    (see {!log_payload}), work that is byte for byte the same at every
    replica.

    The answer is exact, not a cache of guesses: bytes are a hit only if
    their algorithm and the bytes themselves equal a held entry's
    ([String.equal]), and then the digest returned is the one
    {!Sof_crypto.Digest_alg.digest} computed over those bytes; a wrap is
    a hit only if its state and marks equal a held pair's.  A lookup
    allocates nothing.  A memo is not thread-safe; its driver calls it from
    one thread. *)
module Images : sig
  type t

  val create : ?window:int -> unit -> t
  (** A memo of the last [window] (default {!image_window}) distinct byte
      strings and the last {!image_window} wraps. *)

  val digest : t -> Sof_crypto.Digest_alg.t -> string -> string * string
  (** [digest t alg image] is [(image', image_digest alg image)], where
      [image'] is [String.equal] to [image]: on a hit the string the memo
      already holds, so the callers share one copy, and otherwise [image]
      itself, which the memo then holds in place of its oldest entry. *)

  val hash : t -> Sof_crypto.Digest_alg.t -> string -> string
  (** The digest alone: [snd (digest t alg bytes)]. *)

  val wrap : t -> state:string -> marks:(int * int) list -> string
  (** [wrap t ~state ~marks] is [wrap_image ~state ~marks], made once for
      the last {!image_window} distinct pairs: a pair whose state is
      [String.equal] and whose marks are equal to a held pair's gets the
      image already made, so the replicas that wrap one boundary share one
      string.  Neither {!asked} nor {!computed} counts it. *)

  val asked : t -> int
  (** Calls to {!digest} and {!hash} so far. *)

  val computed : t -> int
  (** Calls that hashed, i.e. missed. *)

  val length : t -> int
  (** Entries held now; never more than the window. *)
end

val wrap_image : state:string -> marks:(int * int) list -> string
(** Pack a service snapshot and the per-client delivery high-water marks
    ([(client, highest delivered client_seq)]) into one image.  The
    at-most-once filter is replicated state: without it a recovered
    process would re-deliver a request that a coordinator elected across a
    partition legally rebatches.  The marks — not the raw delivered-key
    sets, which processes prune at their own pace — are what is
    deterministic across correct processes at a boundary; [marks] must be
    sorted by client so the wrapped bytes (and hence the certified digest)
    are canonical. *)

val unwrap_image : string -> (string * (int * int) list) option
(** Inverse of {!wrap_image}; [None] on malformed bytes (a corrupt image
    also fails its digest check, this guards the decoder itself). *)

val equal_cert : cert -> cert -> bool

val write_cert : Sof_util.Codec.Writer.t -> cert -> unit
val read_cert : Sof_util.Codec.Reader.t -> cert

val write_entry : Sof_util.Codec.Writer.t -> entry -> unit
val read_entry : Sof_util.Codec.Reader.t -> entry
(** @raise Sof_util.Codec.Reader.Truncated on malformed input. *)

val log_payload : Images.t -> Sof_crypto.Digest_alg.t -> cert -> string -> string list * int
(** [log_payload images alg cert image] is a stable checkpoint's
    write-ahead-log frame payload as {!Sof_storage.Wal.write_checkpoint}
    takes it, with its FNV-1a checksum: the image's varint length, the
    image itself and then the encoded certificate, so the log stages the
    image from the string the kernel already holds.  The image leads
    because every replica persists the same image under its own
    certificate: [images] checksums the length and image once for each
    image it holds digested under [alg] and keeps the result, and each
    replica feeds on only its certificate.  The pieces' concatenation is what
    {!decode_log_payload} reads. *)

val decode_log_payload : string -> (cert * string) option
(** The certificate and image of a {!log_payload}; [None] unless the bytes
    are exactly one. *)
