(** Reproduction of every figure in the paper's evaluation (Section 5).

    Each experiment returns structured rows; {!Report} renders them.  The
    simulator replaces the paper's 15-machine LAN (DESIGN.md, substitution
    S1), so absolute values are calibrated while the orderings, gaps and
    saturation behaviour are the reproduced results. *)

type series_point = {
  batching_interval_ms : float;
  latency_ms : float option;  (** None: nothing committed in-window. *)
  throughput_rps : float;
}

type series = { label : string; points : series_point list }

type failover_point = {
  target_uncommitted : int;  (** Batches deliberately left in flight. *)
  backlog_bytes : int;  (** Measured encoded BackLog/ViewChange size. *)
  failover_ms : float;
}

type failover_series = { fo_label : string; fo_points : failover_point list }

val default_intervals_ms : int list
(** The paper's sweep: 40..500 ms. *)

val failfree_spec :
  ?auth:Sof_crypto.Keyring.auth ->
  ?amortize:bool ->
  kind:Cluster.kind ->
  f:int ->
  scheme:Sof_crypto.Scheme.t ->
  interval:Sof_sim.Simtime.t ->
  seed:int64 ->
  unit ->
  Cluster.spec
(** The fail-free configuration every figure sweep runs: the given scheme,
    wire auth (default [Sign]), verify amortisation (default off),
    batching interval and seed, with the pair delay estimate (30 s) and
    heartbeat (1 h) set so that no timer ever accuses a process
    (assumption 3(a)(i)). *)

val fig4_5 :
  ?auth:Sof_crypto.Keyring.auth ->
  ?f:int ->
  ?intervals_ms:int list ->
  ?rate:float ->
  ?seed:int64 ->
  scheme:Sof_crypto.Scheme.t ->
  unit ->
  series list
(** One sub-figure of Figures 4 and 5: order latency and throughput vs
    batching interval for CT, SC and BFT under the given crypto scheme,
    f defaulting to 2.  Latency answers Figure 4, throughput Figure 5 —
    the paper derives both from the same runs, and so do we. *)

val fig6 :
  ?f:int ->
  ?targets:int list ->
  ?seed:int64 ->
  scheme:Sof_crypto.Scheme.t ->
  unit ->
  failover_series list
(** Figure 6: fail-over latency vs BackLog size for SC and SCR.  A
    value-domain fault is injected at the coordinator primary after
    [target] batches have been issued in quick succession (still
    uncommitted), so the BackLog carries [target] real uncommitted orders;
    the measured encoded size is reported alongside. *)

val phase_breakdown_for :
  ?auth:Sof_crypto.Keyring.auth ->
  ?amortize:bool ->
  kind:Cluster.kind ->
  f:int ->
  scheme:Sof_crypto.Scheme.t ->
  interval_ms:int ->
  rate:float ->
  seed:int64 ->
  duration:Sof_sim.Simtime.t ->
  unit ->
  Metrics.breakdown
(** One fail-free run of [kind] reduced to its per-phase critical path
    (see {!Metrics.phase_breakdown}).  The cluster runs two seconds past
    the workload so trailing batches commit and close their spans.
    [auth] selects the wire authentication (default [Sign]); [amortize]
    turns on the accountable-path verify cache. *)

val phase_breakdowns :
  ?auth:Sof_crypto.Keyring.auth ->
  ?amortize:bool ->
  ?f:int ->
  ?interval_ms:int ->
  ?rate:float ->
  ?seed:int64 ->
  ?duration:Sof_sim.Simtime.t ->
  scheme:Sof_crypto.Scheme.t ->
  unit ->
  Metrics.breakdown list
(** {!phase_breakdown_for} over CT, SC and BFT — the protocols of
    Figures 4/5 — with the figures' defaults (f=2, 100 ms batching,
    400 req/s, 10 s workload). *)

val mac_phase_breakdowns :
  ?f:int ->
  ?interval_ms:int ->
  ?rate:float ->
  ?seed:int64 ->
  ?duration:Sof_sim.Simtime.t ->
  scheme:Sof_crypto.Scheme.t ->
  unit ->
  Metrics.breakdown list
(** The same fail-free configuration re-run under MAC wire authentication
    with amortized verification, for SC and BFT (the protocols with an
    n-to-n phase).  Appended to the signed breakdowns these feed the
    bench's MAC-mode verdicts: asymmetric verifies/batch collapse to the
    accountable residue while slice checks absorb the quorum traffic. *)

val saturation_threshold :
  ?f:int ->
  ?rate:float ->
  ?seed:int64 ->
  scheme:Sof_crypto.Scheme.t ->
  Cluster.kind ->
  int
(** Smallest batching interval (ms, 10 ms granularity) at which the protocol
    still runs in steady state — mean latency within 3x of its 500 ms value.
    Reproduces the paper's observation that BFT's threshold is larger than
    SC's (it "causes system saturation earlier"). *)

(** {2 Ablations} *)

type dumb_point = {
  dp_optimised : bool;  (** The dumb-process optimisation was on. *)
  dp_messages : int;  (** Messages sent over the whole run. *)
  dp_throughput_rps : float;
}

val dumb_process_ablation : unit -> dumb_point list
(** Section 4.3's dumb-process optimisation, on then off: SC at f=2 with
    a value-domain fault at the coordinator primary (order 3), 50 ms
    batching, 300 req/s for 8 s, seed 1.  With the optimisation on, the failed
    pair falls silent and quorums shrink, so fewer messages carry the
    same throughput. *)

type pair_link_point = {
  pl_delay_ms : int;  (** Constant one-way pair-link delay. *)
  pl_latency_ms : float option;  (** Mean order latency; None: nothing committed. *)
}

val pair_link_ablation : unit -> pair_link_point list
(** SC's order latency against the pair link's one-way delay (0, 2, 5 and
    10 ms): fail-free, f=2, md5-rsa1024, 200 ms batching, 200 req/s for
    8 s, seed 1.  The 1-to-1 endorsement hop sits on the critical path
    once, so latency rises about 1:1 with the delay. *)

val message_counts :
  ?f:int -> ?seed:int64 -> unit -> (string * int * int) list
(** Fail-free messages and bytes per protocol for a fixed workload —
    quantifies the paper's "smaller message overhead" claim.  Returns
    [(protocol, messages, bytes)]. *)

val recovery_costs :
  ?f:int ->
  ?seed:int64 ->
  ?duration:Sof_sim.Simtime.t ->
  unit ->
  (string * Metrics.recovery) list
(** Crash-restart recovery cost per protocol: one seeded {!Nemesis}
    restart campaign each (checkpointing on, the campaign's crash target
    brought back mid-run), reduced to its {!Metrics.recovery_stats} —
    restart-to-rejoin latency, transfers installed/rejected, checkpoint
    and truncation counts, peak retained log.  Returns
    [(protocol, recovery)] over CT, SC, SCR and BFT. *)

val durable_recovery_costs :
  ?f:int ->
  ?seed:int64 ->
  ?duration:Sof_sim.Simtime.t ->
  unit ->
  (string * Metrics.recovery * Cluster.storage_totals) list
(** The durable counterpart of {!recovery_costs}: the same campaign shape
    on a cluster with simulated disks and the default fault atlas armed
    ([disk_faults]), so the mid-run restart recovers from its local
    write-ahead log and the campaign ends in a whole-cluster blackout and
    mass restart.  Returns [(protocol, recovery, storage)] over CT, SC,
    SCR and BFT — local replays versus state transfers, plus the durable
    write-path and atlas-hit accounting. *)

(** {2 mod_pow micro-benchmark} *)

type modexp_point = {
  mx_bits : int;
  mx_montgomery_ms : float;  (** wall-clock ms for [iters] exponentiations *)
  mx_knuth_ms : float;
}

val modexp_micro :
  ?bits:int list -> ?iters:int -> ?seed:int64 -> unit -> modexp_point list
(** Times {!Sof_crypto.Bignum.mod_pow_montgomery} against
    {!Sof_crypto.Bignum.mod_pow_knuth} on full-width odd moduli at the
    paper's RSA sizes (default 1024 and 1536 bits).  This is host
    wall-clock time — the one deliberately non-deterministic number in the
    bench document — backing the verdict that the Montgomery path wins. *)

(** {2 Timeout-sensitivity sweep} *)

type timeout_point = {
  ts_label : string;  (** ["static x0.5"], ..., or ["adaptive"]. *)
  ts_multiplier : float option;
      (** Static multiple of the 400 ms base estimate; [None] for the
          adaptive row. *)
  ts_estimate_ms : float;  (** Configured estimate (initial, if adaptive). *)
  ts_fail_signals : int;  (** Premature fail-signals emitted. *)
  ts_installs : int;  (** Configuration installs those signals caused. *)
  ts_min_deliveries : int;  (** Slowest process's delivery count. *)
  ts_degradation_live : bool;  (** Deliveries continued during the surge. *)
  ts_passed : bool;  (** Whole-campaign verdict. *)
}

val timeout_sensitivity :
  ?f:int ->
  ?seed:int64 ->
  ?duration:Sof_sim.Simtime.t ->
  ?multipliers:float list ->
  unit ->
  timeout_point list
(** Premature-suspicion cost of a mis-set delay estimate, measured on one
    pinned {!Nemesis.Gray} straggler campaign against SC.  Each
    multiplier scales the 400 ms static estimate for one run of the same
    seeded schedule; the final row repeats it under the adaptive
    estimator.  Small multiples accuse the straggling (healthy) pair and
    churn configurations; large ones ride out the surge by brute
    over-estimation; the adaptive row matches the large-multiple outcome
    with no tuning.  Backs the bench document's "timing" section. *)
