(** The coordinator-pair replica shared by SC and SCR.

    SC and SCR run the same normal case: a coordinator pair's primary
    orders a batch, its shadow checks it in the value and time domains,
    endorses it and multicasts it, and every process acks and commits on a
    quorum.  Both watch their counterpart with heartbeats, emit the
    pre-signed fail-signal on evidence, certify checkpoints with the pair's
    double signature, and replace a failed coordinator by installing a new
    back-log.  They differ in how the coordinator is replaced — SC's
    sequential install part (rank [c]) against SCR's view change (view [v])
    — and in what "the pair is up" means.

    This module is that shared replica.  It is generic over the core's own
    state ['x] and reaches the core only through a {!hooks} record of plain
    functions: the era (SC's rank, SCR's view), the pair-is-up predicate,
    the coordinator roles, and the reaction to a fail-signal.  Everything
    that is not pair machinery — delivery, truncation, state transfer —
    lives in {!Recovery}. *)

type votes = {
  mutable sources : Set.Make(Int).t;
  mutable proof : (int * string) list;
}
(** Votes for one digest at one sequence number: the order's signatories
    and matching acks, with their signatures as the commitment proof. *)

type slot = {
  o : int;
  mutable digest : string;  (** Authoritative once [have_order]. *)
  mutable keys : Sof_smr.Request.key list;
  mutable have_order : bool;
  mutable era : int;  (** Era of the coordinator that produced the order. *)
  mutable acked : bool;
  mutable committed : bool;
  mutable null : bool;  (** Gap filler or install placeholder: delivers nothing. *)
  votes_by_digest : (string, votes) Hashtbl.t;
  mutable sp_batch : bool;  (** Trace spans currently open for this order. *)
  mutable sp_endorse : bool;
  mutable sp_order : bool;
  mutable sp_ack : bool;
}

type 'x hooks = {
  era : 'x t -> int;  (** Current coordinator era: SC's rank [c], SCR's view [v]. *)
  rank_of : 'x t -> int -> int;  (** The candidate rank coordinating an era. *)
  settled : 'x t -> bool;  (** No install or view change in progress. *)
  up : 'x t -> bool;
      (** This process's pair is collaborating (SC [pair_active], SCR
          [status = Up]).  Consulted only for a paired process. *)
  am_primary : 'x t -> bool;  (** Acting coordinator primary. *)
  am_shadow : 'x t -> bool;  (** Acting coordinator shadow. *)
  transmit : 'x t -> bool;  (** May send at all (SC's dumbed pairs may not). *)
  quorum : 'x t -> int;  (** Commit quorum. *)
  endorses_checkpoints : 'x t -> bool;
      (** Whether the shadow endorses its primary's checkpoint proposals now
          (SCR: only while up; SC: always). *)
  down : 'x t -> value_domain:bool -> unit;
      (** The pair-state change when this process emits its fail-signal. *)
  pair_failed : 'x t -> int -> unit;
      (** React to a pair having failed (replace the coordinator). *)
}

and 'x t = {
  ctx : Context.t;
  config : Config.t;
  fault : Fault.t;
  counterpart_fail_signal : string option;
  pair_rank : int option;
  counterpart : int option;
  all_ids : int list;
  log : slot Recovery.log;
  timing : Timing.t;
  recovery : slot Recovery.hooks;
  hooks : 'x hooks;
  x : 'x;  (** The core's own state. *)
  mutable committed_digest : string;  (** At [log.max_committed]. *)
  mutable committed_era : int;
  mutable committed_proof : (int * string) list;
  mutable start_covers : Message.order_info list;
      (** Back-log orders the install placeholder commits along with it. *)
  mutable anchor_seen : int;
      (** Highest installed anchor: every sequence at or below it is proven
          committed somewhere, so late orders from superseded coordinators
          may still be adopted there (catch-up for a replica that lagged
          across the install). *)
  mutable stash_future : (int * Message.envelope) list;
      (** Messages for a later era, replayed once it is installed. *)
  mutable batch_timer : Context.timer option;
  mutable endorsement_watches : (int * Context.timer) list;
  mutable expected_seq : int;  (** Shadow: next sequence number to endorse. *)
  mutable last_progress : Sof_sim.Simtime.t;  (** Shadow: last endorsement made. *)
  mutable stashed_endorsements :
    (Sof_sim.Simtime.t * Message.envelope * Message.order_info) list;
      (** Shadow: deferred orders, kept with their decoded info. *)
  mutable watch_timer : Context.timer option;
  mutable stash_retry_armed : bool;
  mutable shadow_watch_level : int;  (** Doublings on the shadow's stall budget. *)
  mutable view_ordered_keys : Sof_smr.Request.Key_set.t;
      (** Keys ordered in the current era, for the shadow's double-ordering
          check. *)
  mutable fail_signalled : bool;
  mutable last_heard : Sof_sim.Simtime.t;  (** Last message from the counterpart. *)
  mutable heartbeat_timer : Context.timer option;
  mutable beat : int;
  mutable hb_level : int;  (** Doublings on the heartbeat silence tolerance. *)
  mutable ckpt_proposals : (Message.envelope * int * string) list;
      (** Shadow: checkpoint proposals awaiting our own boundary image. *)
  mutable ckpt_certs : Checkpoint.cert list;
      (** Verified certificates awaiting our own boundary image. *)
}

val create :
  name:string ->
  ctx:Context.t ->
  config:Config.t ->
  fault:Fault.t ->
  counterpart_fail_signal:string option ->
  hooks:'x hooks ->
  'x ->
  'x t
(** Raises [Config.Invalid_config] (prefixed with [name]) when a paired
    process lacks its counterpart's fail-signal or an unpaired one has
    one. *)

(** {1 Signing and sending} *)

val cancel : Context.timer option -> unit
(** Cancel a timer slot's timer, if armed. *)

val id : 'x t -> int
val others : 'x t -> int list
val send : 'x t -> dst:int -> Message.envelope -> unit
val multicast : 'x t -> dsts:int list -> Message.envelope -> unit
val doubly_signed_by_pair : 'x t -> rank:int -> Message.envelope -> bool

val valid_coordinator_message : 'x t -> rank:int -> Message.envelope -> bool
(** Doubly signed by pair [rank], or singly signed by SC's unpaired last
    candidate. *)

val fail_signal_authentic : 'x t -> pair:int -> Message.envelope -> bool
val pair_estimate : 'x t -> Sof_sim.Simtime.t
(** The pair delay estimate: configured, or the counterpart link's measured
    deadline under adaptive timing. *)

(** {1 The order log} *)

val span_open : 'x t -> Context.phase -> int -> unit
val span_close : 'x t -> Context.phase -> int -> unit
val send_ack : 'x t -> slot -> unit
val try_commit : 'x t -> slot -> unit

(** {1 The pair at work} *)

val emit_fail_signal : 'x t -> value_domain:bool -> unit
(** Double-sign and broadcast the counterpart's pre-signed fail-signal, at
    most once while the pair is up, then call [hooks.pair_failed].  A
    [Withhold_fail_signal] saboteur never does. *)

val arm_heartbeat : 'x t -> (int -> int -> unit) -> unit
(** Arm the next heartbeat round, [tick rank counterpart], for a paired
    process. *)

val beat : 'x t -> rank:int -> cp:int -> bool
(** Send one heartbeat (and a probe under adaptive timing); whether the
    counterpart has been heard from within the silence tolerance. *)

val keep_beating : 'x t -> timely:bool -> bool
(** The up pair's verdict on one heartbeat round: a late counterpart first
    doubles the tolerance (adaptive) and is accused once it has walked to
    the cap.  [false] when this round emitted the fail-signal. *)

(** {1 Replacing the coordinator} *)

val new_back_log :
  'x t -> (int * Message.order_info list) list -> int * int * Message.order_info list
(** From a quorum of (max committed, uncommitted orders) reports: the
    start sequence number, the anchor (highest proven commit) and the
    back-log between them — the best-supported digest per sequence number,
    holes filled with null orders. *)

val plausible :
  'x t ->
  start_o:int ->
  anchor:int ->
  new_back_log:Message.order_info list ->
  reports:Message.order_info list list ->
  bool
(** The new shadow's check of its primary's proposal against the reports
    it received itself: no known commit contradicted, no order with f+1
    competing reports chosen. *)

val install :
  'x t ->
  Message.envelope ->
  era:int ->
  start_o:int ->
  anchor:int ->
  new_back_log:Message.order_info list ->
  primary:bool ->
  shadow:bool ->
  slot
(** Adopt an endorsed Start or NewView: enter its back-log, make the
    message itself the null order at [start_o], and take up the new
    primary or shadow role.  Returns the [start_o] slot, which the caller
    acks and tries to commit once its own bookkeeping is done. *)

val take_stash : 'x t -> (int * Message.envelope) list
(** Messages stashed for a later era, oldest first; clears the stash. *)

(** {1 Inbound} *)

val note_heard : 'x t -> src:int -> unit
(** Any message from the counterpart refreshes its liveness. *)

val on_message : 'x t -> src:int -> Message.envelope -> unit
(** Orders, acks, checkpoints, state transfer and probes — the traffic SC
    and SCR handle alike.  Every other body is ignored. *)

val on_request : 'x t -> Sof_smr.Request.t -> bool
(** Pool a client request on its first arrival (re-checking stashed
    endorsements and arming the shadow's watch) and return [true]; [false]
    when the key was already pooled or ordered. *)

val start : 'x t -> arm_heartbeat:(unit -> unit) -> unit
(** Start heartbeats and batching, and schedule a
    [Spurious_fail_signal_at] saboteur's accusation. *)
