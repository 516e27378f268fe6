(** Cluster construction: a whole protocol deployment under the simulator.

    [build] wires n process shells ({!Sof_protocol.Replica}) to a simulated
    LAN ({!Sof_net.Delay_model.lan_default}), one single-server CPU per
    node and a trusted-dealer keyring.  All
    virtual CPU charging happens here, per {!Cost_model.default} and the
    scheme's cost table: message receipt, sends, signatures, verifications
    and digests. *)

type kind = Sof_protocol.Config.kind = Sc_protocol | Scr_protocol | Bft_protocol | Ct_protocol

type spec = {
  kind : kind;
  f : int;
  scheme : Sof_crypto.Scheme.t;
  auth : Sof_crypto.Keyring.auth;
      (** Wire authentication for quorum-internal messages.  [Sign] (the
          default) authenticates everything with the scheme, exactly as
          before.  [Mac] provisions pairwise symmetric keys and sends
          PBFT-style MAC authenticator vectors for the ack/prepare/commit
          phases, while orders, fail-signals and checkpoints — everything
          {!Sof_protocol.Message.accountable_body} — keep transferable
          scheme signatures. *)
  amortize_verify : bool;
      (** Cache verified (signer, msg, signature) triples per node so
          quorum re-checks of an identical accountable payload verify
          once.  Off by default: caching skips CPU charges and therefore
          perturbs seeded trajectories. *)
  batching_interval : Sof_sim.Simtime.t;
  batch_size_limit : int;
  pair_delay_estimate : Sof_sim.Simtime.t;
  heartbeat_interval : Sof_sim.Simtime.t;
  pair_link : Sof_net.Delay_model.t;
  seed : int64;
  faults : (int * Sof_protocol.Fault.t) list;  (** (process id, fault). *)
  machine_factory : unit -> unit -> Sof_smr.State_machine.t;
      (** Which service each node replicates, fed by delivered batches
          (default: {!Sof_smr.Kv_store.machines}).  Called once per
          {!build}; the maker it returns is called for every process and
          every restart, so its machines may share work. *)
  dumb_optimization : bool;  (** SC's Section-4.3 first optimisation. *)
  real_crypto : bool;
      (** Sign with the scheme's real RSA/DSA instead of HMAC stand-ins,
          and verify every message with it.  Without it a stand-in
          signature the cluster issued is recognised by equality
          ({!Sof_crypto.Issued}), and only other triples are recomputed.
          Timing is unaffected either way (the cost model rules); real
          crypto makes runs much slower and is meant for end-to-end
          authenticity demos. *)
  use_channel : bool;
      (** Route all protocol traffic through a {!Sof_net.Channel} so the
          protocols keep their reliable-channel assumption even when the
          substrate drops, duplicates, reorders or partitions
          ({!Sof_net.Channel.default_config}). *)
  checkpoint_interval : int;
      (** Checkpoint every this-many delivered sequence numbers; 0 (the
          default) disables checkpointing, log truncation and state
          transfer, keeping pre-checkpoint seeded runs byte-identical. *)
  durable : bool;
      (** Give every node a simulated disk with a write-ahead log: commit
          implies sync before the reply is recorded, and restart replays the
          local log (local-first recovery) before falling back to peer state
          transfer.  Off by default — non-durable runs are byte-identical to
          older seeded runs. *)
  disk_profile : Sof_storage.Fault_atlas.profile option;
      (** Storage-fault atlas applied to the disks of replicas 1..f — the
          storage-fault budget mirrors the process-fault budget, so a
          quorum's worth of disks stays well-behaved.  [None] (the default)
          means every disk is clean. *)
  timing : Sof_protocol.Config.timing;
      (** [Static] (the default) keeps the paper's fixed
          [pair_delay_estimate] in every timeliness check, byte-identical
          to older seeded runs.  [Adaptive] makes every process track
          measured round-trips (Jacobson estimator fed by probe traffic)
          and derive its suspicion, retransmit and view-change timers from
          them, with exponential backoff capped at 64 x the configured
          estimate.  Liveness-only in all four protocols. *)
}

val default_spec : kind:kind -> f:int -> spec
(** Mock scheme, 100 ms batching, 1 KB batches, 100 ms pair delay estimate,
    no faults, the KV store. *)

type t

val build : spec -> t
(** Constructs and starts every process.  Deterministic in [spec.seed]. *)

val config : t -> Sof_protocol.Config.t
(** The protocol configuration every process was built from. *)

val process_count : t -> int
val engine : t -> Sof_sim.Engine.t
val network : t -> Sof_net.Network.t

val channel : t -> Sof_net.Channel.t option
(** The reliable channel carrying protocol traffic, when [spec.use_channel]
    was set; its stats prove whether the lossy path was exercised. *)

val adversary : t -> Adversary.t option
(** The wire adversary, present when a [Replay_stale] or [Corrupt_wire]
    fault was assigned; its counters prove the hostile path was exercised. *)

val spec : t -> spec
(** The spec the cluster was built from (fault assignments and all). *)

val proc : t -> int -> Sof_protocol.Replica.t
(** Node [i]'s process shell. *)

val machine : t -> int -> Sof_smr.State_machine.t
(** Node [i]'s current incarnation's service state. *)

val inject_request : t -> Sof_smr.Request.t -> unit
(** Deliver a client request to every process (clients broadcast), charging
    each CPU the receive cost. *)

val crash : t -> int -> unit
(** Hard-crash a node: its process stops at once
    ({!Sof_protocol.Replica.crash}: no handler, timer or event until the
    restart) and the network cuts it off (silent, loses in-flight).  Under
    [durable] the node's disk crashes too: unsynced writes are lost and a
    torn-write atlas may tear the last flushed sector.  No-op when the node
    is already crashed. *)

val restart : t -> int -> unit
(** Bring a crashed node back: reconnect it at the network level and
    {!Sof_protocol.Replica.restart} its process (same configuration, empty
    volatile state, a fresh state machine).  Under [durable], recovery is
    local-first: the replica re-mounts its write-ahead log and replays it
    (emitting {!Sof_protocol.Context.Wal_replayed}), and requests peer
    state transfer only when the log was damaged or replay did not advance
    delivery.  Without a disk the node goes straight to state transfer.
    No-op unless the node is currently crashed. *)

val log_length : t -> int -> int
(** Retained order-log length at process [i] — what checkpoint-driven
    truncation keeps bounded. *)

val stable_checkpoint_seq : t -> int -> int
(** Process [i]'s latest stable checkpoint sequence number (0 when none). *)

val delivered_seq : t -> int -> int
(** Highest sequence number process [i] has delivered to its service. *)

val client_marks : t -> int -> (int * int) list
(** Process [i]'s per-client delivery high-water marks, sorted by client —
    the ground truth the durability invariant checks replies against. *)

val events : t -> (Sof_sim.Simtime.t * int * Sof_protocol.Context.event) list
(** All protocol events so far, in emission order, as
    [(time, process, event)]. *)

val crypto_counts : t -> int -> Trace.crypto
(** Crypto operations process [i] has charged through its context so far
    (counts and the simulated nanoseconds the cost table priced them at). *)

val send_counts : t -> int -> Trace.msg_count list
(** Messages process [i] has sent, grouped by wire tag and sorted by tag.
    SC/SCR order envelopes carrying an endorsement count under
    ["order+endorsed"], separating the 1-to-1 endorse hop from the 2-to-n
    dissemination that reuses the same body. *)

val total_send_counts : t -> Trace.msg_count list
(** {!send_counts} summed over all processes. *)

val total_crypto_counts : t -> Trace.crypto
(** {!crypto_counts} summed over all processes. *)

val images : t -> Sof_protocol.Checkpoint.Images.t
(** The cluster's one memo of checkpoint images, shared by every process
    and every restart: {!Sof_protocol.Checkpoint.Images.asked} counts the
    image digests the replicas asked for (each one charged), summed over
    replicas, and {!Sof_protocol.Checkpoint.Images.computed} the hash
    passes they cost. *)

val batches : t -> Sof_protocol.Checkpoint.Images.t
(** The cluster's one memo of batch digests, counted the same way. *)

val cuts : t -> Sof_storage.Wal.Cuts.t
(** The cluster's one memo of checkpoint images cut into sectors, shared
    by every durable node's log: {!Sof_storage.Wal.Cuts.asked} counts the
    long pieces the logs staged, summed over logs, and
    {!Sof_storage.Wal.Cuts.cut} the pieces cut for them. *)

val codec_counts : t -> int * int
(** [(encodes, decodes)] so far, over all processes: envelopes encoded (one
    per send or multicast, however many copies it makes) and payloads
    received, each handed to {!envelope}. *)

val envelope : t -> string -> Sof_protocol.Message.envelope
(** The envelope a received payload decodes to, as the inbound path hands
    it to a process.  The cluster's one memo holds the last 16 payloads
    decoded and their envelopes: a payload [String.equal] to a held one
    gets the held envelope itself, so the receivers of one multicast share
    one decoded envelope; any other is decoded with
    {!Sof_protocol.Message.decode} and held in place of the oldest.  A
    tampered copy differs from its original and is decoded on its own.
    Exact, since the codec is canonical and an envelope is immutable.
    @raise Sof_util.Codec.Reader.Truncated as [decode] does; a payload
    that does not decode is not held. *)

val envelope_decodes : t -> int
(** Payloads {!envelope} actually decoded so far: those its memo missed,
    including the ones that did not decode. *)

val run : t -> until:Sof_sim.Simtime.t -> unit
(** Advance the simulation to the given virtual instant. *)

val replies_for : t -> Sof_smr.Request.key -> (int * string) list
(** Replies each node's state machine produced for the request, as
    [(process, reply bytes)]. *)

val reply_certificate : t -> Sof_smr.Request.key -> string option
(** The reply a correct client would accept: vouched for by at least f+1
    distinct replicas (the state-machine-replication acceptance rule). *)

(** {1 Storage} *)

type storage_totals = {
  sg_appends : int;  (** write-ahead-log entry frames appended *)
  sg_syncs : int;  (** disk flushes the logs requested *)
  sg_checkpoint_writes : int;  (** durable checkpoints (epoch turn-overs) *)
  sg_dropped : int;  (** frames dropped on region overflow *)
  sg_replays : int;  (** restart-time log replays *)
  sg_replayed_entries : int;  (** entries those replays recovered *)
  sg_damaged_replays : int;  (** replays ending in a torn/corrupt suffix *)
  sg_lost_writes : int;  (** atlas: writes silently dropped *)
  sg_misdirected : int;  (** atlas: writes sent to the wrong sector *)
  sg_torn : int;  (** atlas: sectors torn at crash *)
  sg_corrupt_reads : int;  (** atlas: reads served corrupted *)
  sg_slow_ops : int;
      (** atlas: operations that touched a slow sector — completed
          correctly but each charged a gray-failure CPU stall *)
}

val storage_totals : t -> storage_totals option
(** Storage activity summed over all nodes, each of which keeps one log
    across its restarts; replays, their entries and the damaged ones are
    counted from the {!Sof_protocol.Context.Wal_replayed} events.  [None] unless the spec was
    durable. *)
