(** Nemesis: seeded fault campaigns against a protocol run.

    A campaign is a list of fault {!layer}s.  {!run} builds one cluster
    for it, schedules a timed script of substrate-level disturbances —
    partitions, heals, crashes, delay surges, slow links — together with
    build-time Byzantine faults ({!Sof_protocol.Fault.t}) and disk faults,
    drives a recorded client workload, and judges the run with
    {!Invariants}.  The same seed always reproduces the same campaign and
    the same simulation, so a failing report is a replayable bug. *)

type action =
  | Partition of int list list
      (** Sever the network into these groups (unlisted processes form one
          residual group). *)
  | Heal  (** Remove the active partition. *)
  | Crash of int  (** Hard-crash a process (silent, loses in-flight). *)
  | Surge of float  (** Multiply all delays (partial-synchrony storm). *)
  | Clear_surge
  | Restart of int
      (** Bring a crashed process back with empty volatile state; it rejoins
          through state transfer ({!Cluster.restart}). *)
  | Crash_all  (** Whole-cluster blackout: every process crashes at once. *)
  | Restart_all
      (** Bring every crashed process back.  On a durable cluster each
          recovers from its own disk first (write-ahead-log replay); with no
          live peer at blackout time, local recovery is the only source. *)
  | Straggler of { who : int; factor : float }
      (** Gray failure: multiply both directions of every link touching
          [who] by [factor], relative to the built baselines (pair link or
          LAN).  The process is correct and responsive — just slow. *)
  | Clear_straggler of int  (** Restore the process's links to baseline. *)
  | Slow_link of { src : int; dst : int; factor : float }
      (** Asymmetric gray failure: one directed link slowed by [factor]
          relative to its baseline; the reverse direction is untouched.
          Re-issuing with a new factor models a degrading link. *)
  | Clear_slow_link of { src : int; dst : int }

type step = { at : Sof_sim.Simtime.t; action : action }

type plan = {
  steps : step list;
  byz_faults : (int * Sof_protocol.Fault.t) list;
      (** Installed at build time; such processes are exempt from invariant
          checking.  Filled only under the {!Byzantine} layer. *)
  link_fault : Sof_net.Link_fault.t;
      (** Baseline misbehaviour on every link for the whole run. *)
}

(** {1 Layers} *)

type layer =
  | Lossy
      (** The classic campaign, over the reliable {!Sof_net.Channel}: lossy,
          duplicating and reordering links throughout, a delay surge, one
          or two partitions that never separate a pair (SC's pair-synchrony
          assumption survives), and one crash the protocol tolerates.  All
          disturbances end by ~70% of the run; a terminal heal and
          surge-clear at the last step's instant leaves the network whole,
          and liveness is judged after it. *)
  | Byzantine
      (** Trade the crash for one seeded Byzantine fault aimed at pair 1,
          the initial coordinator: equivocation, digest corruption, dropped
          endorsements, muteness, spurious fail-signals, stale replay, wire
          corruption, and (SCR) Unwilling spam.  BFT draws only backup
          muteness and the wire faults; CT has no Byzantine model and keeps
          its crash.  Under {!Durable} the fault moves to the repair path
          instead: the crash stays, and one of replicas 1..f — the ones
          {!Disk_faults} spends the f-budget on — becomes a
          {!Sof_protocol.Fault.Corrupt_wal_suffix} repair server answering
          state transfers from a tampered local log. *)
  | Restart
      (** Bring the crash target back at ~62% of the run with empty
          volatile state, to rejoin through certified state transfer. *)
  | Durable
      (** Simulated disks: every commit is logged and synced before the
          reply, checkpoints are persisted, and restarts recover from the
          local write-ahead log first.  With {!Restart} the campaign also
          ends in a whole-cluster blackout and mass restart.  With
          {!Gray}, replicas 1..f get slow-sector disks
          ({!Sof_storage.Fault_atlas.slow_sectors}). *)
  | Disk_faults
      (** Arm the default {!Sof_storage.Fault_atlas} on replicas 1..f: torn
          writes at crash, corrupt sectors, lost and misdirected writes. *)
  | Gray of Sof_protocol.Config.timing
      (** Everything works, nothing is fast: no faulty process, reliable
          links, no reliable channel, and a straggler ramp on the process
          the detector watches most closely (SC/SCR: the pair-1 shadow;
          BFT/CT: the last backup) compounded by a jitter surge, a one-way
          slow link and a link that degrades in stages.  The question is
          about the detector: the paper's [Static] estimate must eventually
          accuse the straggler; [Adaptive] timers are judged on never
          doing so. *)

(** The empty list is the fail-free endurance run: sustained load over
    many checkpoint intervals, where the total order grows while the
    retained log stays bounded by truncation. *)

val rejection : ?auth:Sof_crypto.Keyring.auth -> layer list -> string option
(** Why a layer list (under [auth], default [Sign]) is not a campaign, in
    terms of the [sof chaos] flags that select each layer; [None] when it
    is one.  The rules: the endurance run takes no layer; {!Gray} takes
    only {!Durable} and signed authentication; {!Disk_faults} needs
    {!Durable}; {!Byzantine} with {!Restart} needs {!Durable}. *)

(** {1 Running} *)

type report = {
  layers : layer list;
  kind : Cluster.kind;
  f : int;
  seed : int64;
  plan : plan;
  invariants : Invariants.result list;
  channel : Sof_net.Channel.stats option;
      (** Aggregate over all directed links; [Some] iff {!Lossy}. *)
  net : Sof_net.Network.stats;
  honest : int list;  (** Processes held to the invariants. *)
  crashed : int list;
  min_honest_deliveries : int;
      (** Fewest batches delivered by any honest surviving process. *)
  injected : int;  (** Requests injected by the synthetic clients. *)
  replays_injected : int;  (** Stale payloads the wire adversary re-sent. *)
  corruptions_injected : int;  (** Payloads the wire adversary bit-flipped. *)
  restarted : int list;  (** Processes that crash-restarted mid-campaign. *)
  churn : int * int * int;
      (** {!Invariants.suspicion_churn}: fail-signals, BFT view changes, CT
          coordinator rotations.  Premature, every one, under {!Gray}. *)
  signals : Metrics.signal_accounting;
      (** Per-pair breakdown of who blamed whom, plus install churn. *)
  recovery : Metrics.recovery option;
      (** Checkpoint/state-transfer accounting; [Some] iff checkpointing
          was on for the run. *)
  storage : Cluster.storage_totals option;
      (** Durable write-path and fault-atlas accounting; [Some] iff
          {!Durable}. *)
  passed : bool;
}

val run :
  ?auth:Sof_crypto.Keyring.auth ->
  ?pair_estimate:Sof_sim.Simtime.t ->
  layers:layer list ->
  kind:Cluster.kind ->
  f:int ->
  seed:int64 ->
  duration:Sof_sim.Simtime.t ->
  unit ->
  report
(** Build a cluster (50 ms batching and heartbeats, a generous static pair
    delay estimate of [pair_estimate], default 400 ms — the
    timeout-sensitivity sweep's knob; under adaptive timing the estimators'
    initial value, with the hard cap at 64x), schedule the campaign the
    layers draw from [seed], drive a 150 req/s client workload for
    [duration] and a 3 s drain, then judge, in this order: agreement,
    prefix consistency, validity, degradation liveness over the straggler
    window ({!Gray}), liveness after the last step, fail-signal
    accountability and coordinator succession (unless {!Gray}), no
    premature suspicion ([Gray Adaptive]; a static run is expected to
    churn and reports its counts instead), checkpoint agreement and the
    bounded log (when checkpointing: {!Restart}, {!Durable} or the
    endurance run, interval 8), recovery liveness (after a restart),
    durability ({!Durable}) and repair correctness (both).
    Deterministic in [seed].
    @raise Invalid_argument when {!rejection} rejects [layers]. *)

val pp_action : Format.formatter -> action -> unit
val pp_report : Format.formatter -> report -> unit
