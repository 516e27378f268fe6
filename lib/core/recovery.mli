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

(** Per-process checkpoint/recovery bookkeeping, embedded in each protocol
    state record: this process's recent boundary images, its checkpoint
    vote tally, the last two stable checkpoints, the offers of a fetch in
    flight and the per-client delivery marks. *)
type state

val image_at : state -> seq:int -> (string * string) option
(** This process's own state image at a boundary and the image's digest,
    while it is still in the small recent window kept to serve and endorse
    checkpoints in flight.  The digest is computed once, when the boundary
    image is taken, or is the verified certificate's when the image was
    installed by state transfer. *)

val latest_stable : state -> (Checkpoint.cert * string) option

val stable_seq : state -> int
(** Sequence number of the latest stable checkpoint, 0 when none. *)

val marks : state -> (int * int) list
(** All [(client, mark)] pairs, sorted by client — the canonical form
    {!Checkpoint.wrap_image} requires.  A client's mark is the highest
    [client_seq] delivered for it: the deterministic at-most-once filter
    that travels inside checkpoint images.  Raw delivered-key sets are
    pruned at each process's own truncation pace, so they can be neither
    compared nor transferred; the high-water marks depend only on the
    delivered order prefix, which agreement makes common to all correct
    processes.  Assumes clients issue [client_seq] in increasing order
    (the paper's broadcast-client model): a request at or below its
    client's mark is a duplicate or superseded straggler either way. *)

(** {1 The shared delivery log and state-transfer driver}

    Every protocol core embeds one {!log}: its order slots, request pool,
    delivery point and fetch timer.  What the four trust models disagree on
    comes from a {!hooks} record each core builds once in its [create];
    everything else — delivery in sequence, truncation, serving and
    installing state transfer, the write-ahead log, local replay, the fetch
    retry loop — is written once here. *)

(** What the process shell ({!Replica}) gives each incarnation: a fresh
    machine, which delivery applies, checkpoints snapshot and state transfer
    restores, and the driver's hook for each delivered request's reply. *)
type service = { machine : Sof_smr.State_machine.t; on_reply : Sof_smr.Request.t -> string -> unit }

type 'slot log = {
  ctx : Context.t;
  service : service;
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
  executed : Sof_smr.Request.t Sof_smr.Request.Key_tbl.t;
      (** Delivered request bodies, kept (SC/SCR only) so a pair's shadow can
          still verify a digest over re-proposed requests. *)
  mutable recent_delivered : (int * Sof_smr.Request.t list) list;
      (** Delivered batches retained for serving state transfer, newest
          first; pruned one interval behind the stable checkpoint.  Only
          maintained when checkpointing is on. *)
  mutable fetch_timer : Context.timer option;
  mutable fetch_backoff : int;  (** Doublings applied to fetch retries. *)
  spans : (int, int) Hashtbl.t;
      (** This process's open trace spans: the set of phases open under each
          sequence number, view or rank, as a bit set.  Read and written
          only through {!span_open} and its siblings, and {!truncate}. *)
}

val create_log :
  ctx:Context.t -> service:service -> f:int -> digest:Sof_crypto.Digest_alg.t -> interval:int ->
  'slot log

val batch_digest : 'slot log -> Batch.t -> string
(** The batch's digest under the log's digest algorithm, asked of the
    driver's batch memo ({!Context.t.batches}); the caller charges
    [digest_charge] for it. *)

val note_ordered : 'slot log -> Sof_smr.Request.key -> unit
(** Mark a key as named by an order this process accepted, so batch
    formation skips it. *)

val key_ordered : 'slot log -> Sof_smr.Request.key -> bool

val key_delivered : 'slot log -> Sof_smr.Request.key -> bool
(** Whether a delivered batch held the key: delivery skips it again. *)

val truncate : 'slot log -> int -> unit
(** Drop the order slots at or below [upto] and, one checkpoint interval
    further behind, the delivered batches' key marks and executed bodies;
    emits [Log_truncated].  Forgets, without emitting, the open batch and
    checkpoint spans at or below [upto]; spans keyed by a view or rank
    stay open. *)

(** {2 Trace spans}

    The one place [Span_open]/[Span_close] events are made, so a span never
    opens twice or closes unopened.  The cores only say when a phase starts
    or ends; guards that are protocol facts (an order already committed, a
    vote already cast) stay with them. *)

val span_open : 'slot log -> Context.phase -> int -> unit
(** Open the span at [seq] unless it is open.  A {!Context.batch_scoped}
    phase opens only inside the open batch span at the same [seq]. *)

val span_close : 'slot log -> Context.phase -> int -> unit
(** Close the span at [seq] if it is open. *)

val close_batch_spans : 'slot log -> int -> unit
(** At local commit: close each open batch-scoped phase at [seq] in
    {!Context.all_phases} order, then the batch span. *)

val open_span : 'slot log -> Context.phase -> int -> unit
(** For the one-at-a-time phases (view change, install, fail-over): open
    the phase under [key] unless it is already open under any key. *)

val close_span : 'slot log -> Context.phase -> unit
(** Close the one-at-a-time phase under whatever key it is open. *)

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
    [Checkpoint_stable], persist it as the head of a fresh log epoch (under
    a durable store), close the checkpoint span, truncate.  No-op unless it
    is newer than the current stable checkpoint. *)

val advance : 'slot hooks -> unit
(** Deliver committed slots in strict sequence order, at most once per
    request, while their request bodies are all pooled.  Under a durable
    store each batch's entry is appended and synced, digest and disk
    charged, before the service applies it: commit implies sync. *)

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

val recover : 'slot hooks -> unit
(** Recover a restarted process.  Under a durable store: re-mount the log,
    decode it, turn its epoch over, charge the read-back, install it through
    {!recover_local}, emit [Wal_replayed], and fall back to
    {!request_recovery} when the log was damaged or delivery did not
    advance.  Without one, just {!request_recovery}. *)

(** {2 Write-ahead log payloads}

    The frames the kernel logs: a stable checkpoint
    ({!Checkpoint.log_payload}) and one entry per delivered batch.
    Decoders treat their bytes as hostile: a torn or corrupt frame that
    slipped past the log's checksum comes back as [None]. *)

val encode_entry_payload : Checkpoint.entry -> string
val decode_entry_payload : string -> Checkpoint.entry option

val handle_state_response :
  'slot hooks -> src:int -> cert:Checkpoint.cert option -> image:string ->
  entries:Checkpoint.entry list -> unit
(** Verify an offer during a fetch, install what the collected offers
    certify, and end the fetch once caught up. *)

(** {2 Kernel jobs}

    The rest of the replica loop that all four cores run alike, each on its
    own {!hooks}: minting a batch, taking in a client request, round-trip
    probes, the leader watch and its stall check, and BFT's and
    CT's quorum-tallied checkpoints.  Every send goes through [hooks.sign]
    and [hooks.send] or [hooks.multicast], so a core's signing (or CT's
    unsigned envelopes) and its mute or dumb silence apply unchanged. *)

val unordered : 'slot log -> Sof_smr.Request.t Sof_smr.Request.Key_map.t
(** The pooled requests no accepted order names yet: what a coordinator may
    batch. *)

val mint : 'slot hooks -> Sof_smr.Request.t list -> Message.order_info
(** Order these requests (the caller picks them) under the next sequence
    number: charge and compute the batch digest, flip it under a
    [Corrupt_digest_at] fault for that number, mark the keys ordered and
    emit [Batched]. *)

val on_request : 'slot hooks -> Sof_smr.Request.t -> unit
(** Pool a client request on its first arrival, start its arrival clock
    unless some order already names it, and retry delivery (BFT, CT). *)

val send_probe : 'slot hooks -> int -> unit
(** Send a round-trip probe to a peer, stamped with a fresh nonce and the
    current time. *)

val answer_probe : 'slot hooks -> src:int -> nonce:int -> at:int -> unit
(** Echo a probe back to [src] under adaptive timing; ignore it under
    static timing. *)

val note_probe_reply : 'slot hooks -> src:int -> nonce:int -> at:int -> unit
(** Feed a probe echo into [src]'s round-trip estimator. *)

val stalled : 'slot log -> since:Sof_sim.Simtime.t -> budget:Sof_sim.Simtime.t -> bool
(** Whether the coordinator is overdue: [budget] has passed both since
    [since] (its last progress) and since the arrival of some request that
    no order names yet. *)

val watch_leader :
  'slot hooks ->
  batching:Sof_sim.Simtime.t ->
  leader:(unit -> int) ->
  since:(unit -> Sof_sim.Simtime.t) ->
  accuse:(unit -> unit) ->
  unit
(** BFT's and CT's leader watch: every {!Timing.base} period, probe the
    current [leader ()] under adaptive timing (unless it is this process),
    then call [accuse ()] when the log is {!stalled} since [since ()] with a
    budget of [batching] plus {!Timing.suspicion_delay}, and re-arm. *)

val catch_up : 'slot hooks -> seq:int -> unit
(** Begin a fetch when a checkpoint at [seq] is more than a full interval
    ahead of delivery: the traffic in between is truncated at the peers
    and will never be retransmitted. *)

val quorum_boundary : 'slot hooks -> quorum:int -> int -> unit
(** BFT's and CT's [boundary] hook: take the boundary image, multicast this
    process's checkpoint vote for it, tally it, and adopt the checkpoint
    once [quorum] votes match. *)

val checkpoint_vote :
  'slot hooks -> quorum:int -> seq:int -> digest:string -> signer:int -> signature:string -> unit
(** Tally a peer's checkpoint vote the core has already accepted, adopt the
    checkpoint once [quorum] votes match our own image, and {!catch_up}. *)
