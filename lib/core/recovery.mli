(** Checkpoint certification, the delivery log and the state-transfer
    driver shared by all four protocol cores.

    The protocol-independent part of ordering and recovery: how
    certificates are verified under each protocol's trust model, how
    checkpoint votes are tallied into proofs, how committed slots are
    delivered in sequence, and how a recovering replica fetches, checks and
    installs what the (possibly partly Byzantine) responders offer.  The
    protocol modules keep the rest — who proposes or endorses a checkpoint,
    what an order slot holds — and pass it in as {!hooks}.

    Trust models:
    - BFT certifies with 2f+1 signatures ({!Quorum_signed}) — at least f+1
      correct signers vouch for the image digest, standard PBFT.
    - CT runs under the crash-only model with no cryptography, so a
      certificate is just f+1 distinct senders' claims ({!Quorum_counted});
      at least one sender is correct.
    - SC/SCR certify with the coordinator pair's double signature
      ({!Pair_endorsed}): at most one member of a pair is faulty (the
      signal-on-fail assumption), so a doubly-signed checkpoint carries at
      least one correct signature.  SC's unpaired last candidate certifies
      with its single signature — by the sequential-failure assumption it is
      only coordinating after f failures, i.e. it is correct. *)

type scheme =
  | Quorum_signed of { quorum : int; member_ok : int -> bool }
  | Quorum_counted of { quorum : int; member_ok : int -> bool }
  | Pair_endorsed of { pair_ok : primary:int -> endorser:int option -> bool }
      (** [pair_ok] accepts exactly the legitimate (proposer, endorser)
          combinations: a pair's primary endorsed by its own shadow, or an
          unpaired candidate primary with no endorser. *)

val cert_payload : seq:int -> digest:string -> string
(** The byte string checkpoint signatures cover: the encoded [Checkpoint]
    message body, so wire votes and certificate proofs share signatures. *)

val verify_cert :
  verify:(signer:int -> msg:string -> signature:string -> bool) ->
  scheme:scheme ->
  Checkpoint.cert ->
  bool
(** Full certificate check: positive sequence number, distinct legitimate
    signers, enough of them for the scheme, and (except under
    [Quorum_counted]) every signature valid — endorsements over the same
    body-plus-first-signature payload as envelope endorsements. *)

(** Checkpoint vote tally: one vote per (sequence, signer), first wins. *)
module Tally : sig
  type t

  val create : unit -> t

  val add : t -> seq:int -> digest:string -> signer:int -> signature:string -> unit

  val count : t -> seq:int -> digest:string -> int
  (** Votes recorded for exactly this (seq, digest). *)

  val proof : t -> seq:int -> digest:string -> (int * string) list
  (** The (signer, signature) set behind [count] — a certificate proof once
      the count reaches quorum. *)

  val prune : t -> upto:int -> unit
  (** Drop votes at or below [upto] (sequence numbers already stable). *)
end

type offer = {
  st_from : int;  (** Responder (transport source, not envelope creator). *)
  st_cert : Checkpoint.cert option;
  st_image : string;
  st_entries : Checkpoint.entry list;
}
(** One [State_response], as recorded after the receiving protocol verified
    the certificate and image digest (offers failing those checks are
    rejected before they get here). *)

(** Per-process checkpoint/recovery bookkeeping, embedded in each protocol
    state record. *)
type state

val create : unit -> state

val tally : state -> Tally.t

val note_image : state -> seq:int -> image:string -> unit
(** Remember this process's own state image at a boundary (a small recent
    window is kept — enough to serve and endorse while the next checkpoint
    certifies). *)

val image_at : state -> seq:int -> string option

val note_stable : state -> cert:Checkpoint.cert -> image:string -> bool
(** Record a stable checkpoint with the image it certifies.  Returns [false]
    (and changes nothing) unless it is newer than the current stable one.
    The previous stable checkpoint is retained — it is what a
    [Stale_checkpoint] adversary serves. *)

val latest_stable : state -> (Checkpoint.cert * string) option
val previous_stable : state -> (Checkpoint.cert * string) option

val stable_seq : state -> int
(** Sequence number of the latest stable checkpoint, 0 when none. *)

val add_offer : state -> offer -> unit
(** Record a state-transfer offer, replacing any earlier offer from the same
    responder. *)

val clear_offers : state -> unit
val offers : state -> offer list

val best_image : state -> above:int -> (Checkpoint.cert * string * int) option
(** Among collected offers, the certified image with the highest checkpoint
    sequence number strictly above [above]: (certificate, image, responder). *)

val select_entries :
  quorum:int -> base:int -> entry_ok:(Checkpoint.entry -> bool) -> state -> Checkpoint.entry list
(** The longest contiguous log suffix starting at [base + 1] such that each
    entry's (sequence, digest) is claimed by at least [quorum] distinct
    responders and the chosen entry body passes [entry_ok] (digest
    recomputation).  With [quorum] covering at least one correct responder,
    no fabricated entry survives. *)

(** {2 Per-client delivery marks}

    The deterministic at-most-once filter that travels inside checkpoint
    images ({!Checkpoint.wrap_image}).  Raw delivered-key sets are pruned
    at each process's own truncation pace, so they can be neither compared
    nor transferred; the high-water marks depend only on the delivered
    order prefix, which agreement makes common to all correct processes.
    Assumes clients issue [client_seq] in increasing order (the paper's
    broadcast-client model): a request at or below its client's mark is a
    duplicate or superseded straggler either way. *)

val fresh_key : state -> Sof_smr.Request.key -> bool
(** Whether the key is above its client's mark (deliverable). *)

val mark_delivered : state -> Sof_smr.Request.key -> unit
(** Raise the key's client mark to its [client_seq] (never lowers). *)

val marks : state -> (int * int) list
(** All [(client, mark)] pairs, sorted by client — the canonical form
    {!Checkpoint.wrap_image} requires. *)

val merge_marks : state -> (int * int) list -> unit
(** Max-merge marks from an installed checkpoint image into local state. *)

val fetching : state -> bool
val fetch_anchor : state -> int
val begin_fetch : state -> have:int -> unit
val end_fetch : state -> unit

(** {1 The shared delivery log and state-transfer driver}

    Every protocol core embeds one {!log}: its order slots, request pool,
    delivery point and fetch timer.  What the four trust models disagree on
    comes from a {!hooks} record each core builds once in its [create];
    everything else — delivery in sequence, truncation, serving and
    installing state transfer, local WAL replay, the fetch retry loop — is
    written once here. *)

type 'slot log = {
  ctx : Context.t;
  rcv : state;
  f : int;
  digest : Sof_crypto.Digest_alg.t;
  interval : int;  (** Checkpoint interval; 0 disables checkpointing. *)
  orders : (int, 'slot) Hashtbl.t;  (** The protocol's order slots by sequence. *)
  mutable delivered : int;  (** Highest sequence number handed to the service. *)
  mutable max_committed : int;
  mutable next_seq : int;  (** Next sequence number this process would mint. *)
  mutable pending : Sof_smr.Request.t Sof_smr.Request.Key_map.t;
      (** Request bodies known but not yet delivered. *)
  mutable arrival : Sof_sim.Simtime.t Sof_smr.Request.Key_map.t;
  key_marks : int Sof_smr.Request.Key_tbl.t;
      (** Which keys this process has seen ordered and which it has
          delivered; read and written through {!note_ordered},
          {!key_ordered} and {!key_delivered}.  Truncation drops both marks
          of a key at once. *)
  mutable executed : Sof_smr.Request.t Sof_smr.Request.Key_map.t;
      (** Delivered request bodies, kept (SC/SCR only) so a pair's shadow can
          still verify a digest over re-proposed requests. *)
  mutable recent_delivered : (int * Sof_smr.Request.t list) list;
      (** Delivered batches retained for serving state transfer, newest
          first; pruned one interval behind the stable checkpoint.  Only
          maintained when checkpointing is on. *)
  mutable fetch_timer : Context.timer option;
  mutable fetch_backoff : int;  (** Doublings applied to fetch retries. *)
}

val create_log :
  ctx:Context.t -> f:int -> digest:Sof_crypto.Digest_alg.t -> interval:int -> 'slot log

val note_ordered : 'slot log -> Sof_smr.Request.key -> unit
(** Mark a key as named by an order this process accepted, so batch
    formation skips it. *)

val key_ordered : 'slot log -> Sof_smr.Request.key -> bool

val key_delivered : 'slot log -> Sof_smr.Request.key -> bool
(** Whether a delivered batch held the key: delivery skips it again. *)

val truncate : 'slot log -> int -> unit
(** Drop the order slots at or below [upto] and, one checkpoint interval
    further behind, the delivered batches' key marks and executed bodies;
    emits [Log_truncated]. *)

type 'slot hooks = {
  log : 'slot log;
  timing : Timing.t;
  scheme : scheme;  (** How this protocol certifies checkpoints. *)
  entry_quorum : int;
      (** Matching claims a transferred entry needs: f+1 under Byzantine
          faults, 1 under CT's crash faults. *)
  fault : Fault.t;  (** This process as a state-transfer responder. *)
  retry_base : unit -> Sof_sim.Simtime.t;  (** Fetch retry delay before backoff. *)
  committed_keys : 'slot -> Sof_smr.Request.key list option;
      (** The request keys a committed slot orders ([Some []] for a null
          order); [None] while it is uncommitted. *)
  keep_executed : bool;  (** Fill [log.executed] on delivery. *)
  settle_fresh_only : bool;
      (** On delivery, retire only the fresh keys from the pool (CT), rather
          than every key the order names. *)
  boundary : int -> unit;  (** Checkpoint work at a delivered boundary. *)
  tail_entry : int -> 'slot -> Checkpoint.entry option;
      (** Export a committed-but-undelivered slot for state transfer. *)
  admit : Checkpoint.entry -> bool;
      (** Enter a transferred entry into its slot as committed; [false] when
          the slot had already committed. *)
  sign : Message.body -> Message.envelope;
      (** Wrap an outgoing body: signed, or unsigned under CT. *)
  send : dst:int -> Message.envelope -> unit;
  multicast : Message.envelope -> unit;  (** To every other process. *)
}

(** A core's hooks with the slot type hidden: what a driver reads every
    core's log and recovery state through.  Unboxed, so wrapping a core's
    hooks allocates nothing. *)
type kernel = Kernel : 'slot hooks -> kernel [@@unboxed]

val boundary_image : 'slot log -> int -> string
(** At a delivered checkpoint boundary: snapshot the service with the
    client marks, charge and digest the image, remember it, open the
    checkpoint span.  Returns the image digest. *)

val adopt : 'slot log -> Checkpoint.cert -> image:string -> unit
(** Make a verified certificate over our own matching image stable: emit
    [Checkpoint_stable], close the checkpoint span, truncate.  No-op unless
    it is newer than the current stable checkpoint. *)

val stabilize : 'slot log -> quorum:int -> seq:int -> digest:string -> unit
(** Quorum-tallied schemes (BFT, CT): once [quorum] votes match our own
    boundary image, adopt the tally as the certificate. *)

val advance : 'slot hooks -> unit
(** Deliver committed slots in strict sequence order, at most once per
    request, while their request bodies are all pooled. *)

val flip_first_byte : string -> string
(** The tampering every Byzantine fault injector applies to a digest or
    image: the first byte inverted. *)

val batch_entry : 'slot log -> o:int -> Sof_smr.Request.key list -> Checkpoint.entry option
(** The transfer entry for sequence [o] ordering these keys, digest
    recomputed (and charged) over the pooled bodies; [None] while a body is
    missing. *)

val serve_state_request : 'slot hooks -> src:int -> have:int -> unit
(** Answer a [State_request]: the stable checkpoint when [src] is behind
    it, then every retained or committed entry above that — as corrupted by
    [hooks.fault] when the responder is Byzantine. *)

val recover_local :
  'slot hooks -> cert:Checkpoint.cert option -> image:string -> entries:Checkpoint.entry list ->
  bool
(** Local-first recovery: install the persisted checkpoint and WAL suffix
    as a synthetic self-offer, verified exactly like a peer's (entry quorum
    1: the replica vouches only for its own log).  Returns whether delivery
    advanced. *)

val request_recovery : 'slot hooks -> unit
(** Begin a fetch (idempotent while one is in flight): multicast a
    [State_request] and retry on the backed-off retry delay until offers
    from f+1 responders have been caught up to. *)

val handle_state_response :
  'slot hooks -> src:int -> cert:Checkpoint.cert option -> image:string ->
  entries:Checkpoint.entry list -> unit
(** Verify an offer during a fetch, install what the collected offers
    certify, and end the fetch once caught up. *)
