(** Protocol invariant checking for chaos runs.

    These checks are the referee of the Nemesis harness: after a campaign of
    partitions, crashes, surges and Byzantine faults, they decide whether
    the run preserved the state-machine-replication contract.  They operate
    on the event log a {!Cluster} accumulates, restricted to the processes
    the caller declares honest (processes built with a
    {!Sof_protocol.Fault.t} other than [Honest] may deliver anything —
    Byzantine behaviour is their right).

    - {b Agreement}: no two honest processes deliver different batches at
      the same sequence number.
    - {b Prefix consistency}: the delivered request streams of any two
      honest processes are prefixes of one another (total order, no gaps
      observable at the service).
    - {b Validity}: every request an honest process delivers was actually
      injected by a client (no fabrication), and no honest process delivers
      the same request twice (at-most-once at the service).
    - {b Liveness after heal}: once the last scheduled disturbance is past,
      every honest surviving process delivers again — the system came back.
    - {b Fail-signal accountability}: an honest pair member fail-signals iff
      its counterpart misbehaved — no unattributable accusations (soundness),
      and a fault that demonstrably fired against an honest counterpart ends
      with the pair signalled (detection).
    - {b Coordinator succession}: an honest process that observes the
      current coordinator pair fail installs a successor (SC: a strictly
      higher rank; SCR: the next view's candidate), and a process that
      fail-signalled its own pair goes dumb — it batches nothing further
      until SCR pair recovery.
    - {b Checkpoint agreement}: no two honest processes stabilise
      conflicting checkpoint certificates at the same sequence number.
    - {b Bounded log}: with checkpointing on, no live process retains more
      order-log entries than two checkpoint intervals plus slack.
    - {b Recovery liveness}: every crash-restarted process delivers again
      after its restart — it actually rejoined.
    - {b Durability} (durable runs): every reply-certified request is still
      held by f+1 live processes at run end — crashes forget nothing the
      system vouched for.
    - {b Repair correctness} (durable runs): equal delivered prefixes mean
      equal state digests — recovery lands exactly on the agreed state.
    - {b No premature suspicion} (gray campaigns): when nothing is faulty
      and everything is merely slow, no fail-signal is emitted, no view
      changes, no coordinator rotates.
    - {b Degradation liveness} (gray campaigns): every honest process keeps
      delivering inside the degraded window — slow never becomes stopped.

    The delivery-stream checks are {e anchored}: a recovered process
    resumes above a checkpoint anchor rather than at sequence 1, so
    agreement and prefix consistency compare streams by sequence number
    (contiguous within a segment, pointwise equal across segments), and
    validity demands at-most-once per incarnation — a restarted process
    lost its delivered-set with the crash and may re-deliver what its
    previous life already handled. *)

type result = {
  name : string;
  pass : bool;
  detail : string;  (** Human-readable; names the first violation found. *)
}

(** {2 Event-list cores}

    The safety checks are also exposed over a bare event log — the triple
    list a {!Cluster} accumulates, [(time, process, event)] in emission
    order — so the model checker ([lib/check]) can run the {e same}
    predicates against worlds it drives itself, without a [Cluster.t]. *)

type events = (Sof_sim.Simtime.t * int * Sof_protocol.Context.event) list

val agreement_of : events:events -> honest:int list -> result

val prefix_consistency_of : events:events -> honest:int list -> result

val validity_of :
  events:events -> honest:int list -> injected:Sof_smr.Request.Key_set.t -> result

val commit_coherence_of : events:events -> honest:int list -> result
(** No two honest processes commit different digests at the same sequence
    number.  Strictly stronger than delivered-batch agreement when an
    equivocation changes only the batch digest and not the request keys —
    the case the PR 7 digest-blind vote-pooling bug exploited. *)

val checkpoint_agreement_of : events:events -> honest:int list -> result

val fail_signal_soundness_of :
  events:events ->
  config:Sof_protocol.Config.t ->
  byz:int list ->
  crashed:int list ->
  result
(** The soundness half of {!fail_signal_accountability}: every honest
    fail-signal is attributable (Byzantine or crashed counterpart, or the
    counterpart's own signal).  Detection — faults must eventually be
    signalled — is a liveness obligation that only makes sense at the end
    of a timed campaign, so the event-list core omits it.  Trivially passes
    for protocols without pairs. *)

(** {2 Cluster checks} *)

val agreement : Cluster.t -> honest:int list -> result

val prefix_consistency : Cluster.t -> honest:int list -> result

val validity :
  Cluster.t -> honest:int list -> injected:Sof_smr.Request.Key_set.t -> result

val commit_coherence : Cluster.t -> honest:int list -> result

val liveness_after_heal :
  Cluster.t -> honest:int list -> heal_time:Sof_sim.Simtime.t -> result
(** [honest] here should already exclude crashed processes; a process that
    was crashed by the campaign is under no obligation to deliver. *)

val fail_signal_accountability :
  Cluster.t -> crashed:int list -> by:Sof_sim.Simtime.t -> result
(** Byzantine membership comes from the cluster's own fault assignments;
    [crashed] names processes the campaign hard-crashed.  Detection is only
    demanded of faults that fired at or before [by] (typically the last
    scheduled disturbance), so a fault landing at the very end of a run is
    not required to have been caught yet.  Trivially passes for protocols
    without pairs (BFT, CT). *)

val coordinator_succession :
  Cluster.t -> crashed:int list -> by:Sof_sim.Simtime.t -> result
(** Same conventions as {!fail_signal_accountability}: only coordinator
    failures observed at or before [by] must already have a successor
    installed by the end of the run. *)

val checkpoint_agreement : Cluster.t -> honest:int list -> result
(** Trivially passes when checkpointing is off (no [Checkpoint_stable]
    events are then emitted). *)

val bounded_log : Cluster.t -> live:int list -> slack:int -> result
(** [live] names processes that are up at run end (crashed processes
    cannot truncate); [slack] absorbs in-flight entries above the last
    boundary.  Trivially passes when [spec.checkpoint_interval] is 0. *)

val recovery_liveness : Cluster.t -> by:Sof_sim.Simtime.t -> result
(** Only restarts at or before [by] carry the obligation, so a restart
    scheduled at the very end of a run is not required to have caught up
    yet. *)

val durability :
  Cluster.t -> live:int list -> injected:Sof_smr.Request.Key_set.t -> result
(** Durable runs only: every injected request that earned a reply
    certificate (f+1 matching replicas) must still be held — per-client
    delivery mark at or above its sequence number — by at least f+1 of the
    [live] processes at run end.  Marks ride checkpoint images and
    write-ahead-log replay, so crashes (including whole-cluster blackouts)
    must not forget certified replies. *)

val repair_correctness : Cluster.t -> live:int list -> result
(** Live processes with equal delivered sequence numbers must hold equal
    state digests: recovery — local replay or state transfer — must land a
    repaired replica exactly on the agreed state. *)

(** {2 Gray-failure checks}

    For campaigns where nothing is faulty and everything is slow: no
    Byzantine processes, no crashes, no partitions — only stragglers,
    slow links and jitter.  Under that regime any suspicion is premature
    and any outage is a detector overreaction. *)

val suspicion_churn : Cluster.t -> int * int * int
(** [(fail_signals, view_changes, coordinator_rotations)] across the run —
    one churn measure over all four protocols.  CT rotations are read off
    the live processes' epoch counters (rotation emits no event), so call
    this at run end. *)

val no_premature_suspicion : Cluster.t -> result
(** All three churn counts must be zero.  Only meaningful on a campaign
    with no genuine faults; a static-estimate run under a straggler is
    {e expected} to fail this — that gap is the point of the adaptive
    estimator. *)

val degradation_liveness :
  Cluster.t ->
  honest:int list ->
  degraded_from:Sof_sim.Simtime.t ->
  degraded_until:Sof_sim.Simtime.t ->
  result
(** Every honest process delivers at least once {e inside} the degraded
    window: slow must mean slow, never stopped. *)

val all_pass : result list -> bool

val pp_result : Format.formatter -> result -> unit
