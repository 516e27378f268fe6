(** Metric extraction from a finished run's event log.

    Definitions follow the paper's Section 5 precisely:
    - {e latency}: from the instant the coordinator batches a request
      ([Batched]) to the instant the {e first} process commits a sequence
      number for it ([Committed]); time waiting to be batched is excluded;
    - {e throughput}: messages (requests) committed per second by an order
      process;
    - {e fail-over latency}: from the coordinator's fail-signal to the new
      coordinator's installation event. *)

type point = {
  latency : Sof_util.Statistics.summary option;
      (** Per-batch order latency in milliseconds; [None] when no batch
          committed inside the measurement window. *)
  throughput_rps : float;
  batches : int;  (** Batches whose latency was measured. *)
  committed_requests : int;
  messages_sent : int;
  bytes_sent : int;
  failover_ms : float option;
      (** First fail-signal to first installation, when both occurred. *)
}

val analyze :
  Cluster.t -> warmup:Sof_sim.Simtime.t -> window:Sof_sim.Simtime.t -> point
(** Measure over batches created in [warmup, warmup+window); throughput is
    counted at the highest-numbered replica process (never a coordinator in
    the fail-free runs). *)

val pp_point : Format.formatter -> point -> unit

(** {2 Recovery cost}

    Reduction of the checkpoint and state-transfer events into the cost of
    crash-restart recovery: how many restarts recovered, how long recovery
    took, and whether truncation kept the retained log bounded. *)

type recovery = {
  rc_restarts : int;
  rc_recovered : int;
      (** Restarts that completed recovery — by clean local write-ahead-log
          replay or by a state-transfer install on that process. *)
  rc_local_replays : int;  (** [Wal_replayed] events (durable runs only). *)
  rc_local_recoveries : int;
      (** Restarts recovered from the local log alone: a clean, non-empty
          replay with no escalation needed. *)
  rc_transfers_started : int;
  rc_transfers_installed : int;
  rc_transfers_rejected : int;
      (** Responses refused — bad certificate or corrupt image. *)
  rc_checkpoints_stable : int;
  rc_truncations : int;
  rc_mean_recovery_ms : float option;
      (** [Node_restarted] to that process's recovery completion (local
          replay or transfer install), averaged; [None] without one. *)
  rc_max_log_length : int;
      (** Largest retained order-log across live processes at run end. *)
}

val recovery_stats : Cluster.t -> recovery

(** {2 Fail-signal accounting}

    Who blamed whom, and in which domain.  Under a gray-failure campaign
    (no Byzantine faults, no partitions, every process correct-but-slow)
    {e every} fail-signal is premature: the timeliness check fired on a
    healthy pair.  The per-pair breakdown shows which pair the static
    estimate gave up on. *)

type signal_accounting = {
  fa_total : int;  (** [Fail_signal_emitted] events across the run *)
  fa_time_domain : int;  (** emitted by the time-domain (timeout) check *)
  fa_value_domain : int;  (** emitted by the value-domain (mismatch) check *)
  fa_by_pair : (int * int) list;
      (** [(pair rank, emitted count)], sorted by rank *)
  fa_installs : int;
      (** coordinator/view installations — the churn those signals cost *)
}

val signal_accounting : Cluster.t -> signal_accounting
val pp_signal_accounting : Format.formatter -> signal_accounting -> unit

(** {2 Phase breakdown}

    Reduction of the tracing layer's spans and counters into a per-phase
    view of a protocol's fail-free critical path — the shape the paper's
    Section 5 argument turns on: SC commits after a 1-to-1 endorse hop, a
    2-to-n dissemination and one all-to-all ack exchange, where BFT needs
    a 1-to-n pre-prepare and {e two} all-to-all exchanges. *)

type phase_stat = {
  ps_phase : Sof_protocol.Context.phase;
  ps_intervals : int;  (** sequences with a balanced cluster-wide span *)
  ps_mean_width_ms : float;
      (** mean cluster-wide extent: earliest open to latest close *)
  ps_share : float;
      (** [ps_mean_width_ms] over the mean batch-span width; phases overlap,
          so shares need not sum to 1 *)
  ps_msgs_per_batch : float;
  ps_senders : int;  (** processes that sent at least one phase message *)
  ps_wide : bool;  (** at least n-1 messages per batch *)
  ps_n_to_n : bool;  (** wide, and at least n-1 distinct senders *)
}

type breakdown = {
  bd_protocol : string;
  bd_auth : string;  (** wire auth mode the run used: ["sign"] or ["mac"] *)
  bd_n : int;
  bd_f : int;
  bd_batches : int;  (** sequences with a balanced batch span *)
  bd_mean_batch_ms : float;
  bd_phases : phase_stat list;  (** critical path, in protocol order *)
  bd_wide_phases : int;
  bd_n_to_n_share : float;
      (** fraction of all sent messages carried by n-to-n phases *)
  bd_signs_per_batch : float;
      (** asymmetric signs per batch — under MAC wire auth this shrinks to
          the accountable residue (orders, fail-signals, checkpoints) *)
  bd_verifies_per_batch : float;  (** asymmetric verifies per batch *)
  bd_hmacs_per_batch : float;
      (** symmetric ops per batch (vector tags + slice checks); 0 under
          [--auth sign] *)
  bd_crypto : Trace.crypto;  (** whole-run totals across processes *)
  bd_msg_counts : Trace.msg_count list;  (** whole-run totals, by tag *)
}

val phase_breakdown : Cluster.t -> breakdown
(** Whole-run reduction (no warmup window): spans from {!Cluster.events},
    message and crypto counters from the cluster's per-node accounting. *)
