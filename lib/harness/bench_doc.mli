(** The versioned, machine-readable benchmark document.

    [sof bench --json PATH] and the golden-schema test both build and
    read the same JSON shape through this module:

    {v
    { "schema_version": 6,
      "generator": "sof-bench",
      "seed": <int>, "fast": <bool>,
      "figures": {
        "fig4_5": [ { "protocol", "points": [ { "interval_ms",
                      "latency_ms" | null, "throughput_rps" } ] } ],
        "fig6": [ ... ] | null,
        "message_counts": [ ... ] | null },
      "phases": [ per-protocol breakdowns, see {!json_of_breakdown} ],
      "recovery": [ crash-restart cost rows, see {!json_of_recovery} ] | null,
      "storage": [ durable-campaign rows, see {!json_of_storage_row} ] | null,
      "modexp": [ { "bits", "montgomery_ms", "knuth_ms" } ],
      "timing": [ { "label", "multiplier" | null, "estimate_ms",
                    "fail_signals", "installs", "min_deliveries",
                    "degradation_live", "passed" } ] | null,
      "ablations": { "dumb_process": [ { "optimised", "messages",
                                         "throughput_rps" } ],
                     "pair_link": [ { "delay_ms",
                                      "latency_ms" | null } ] } | null,
      "verdicts": [ { "name", "pass" } ] }
    v}

    Schema history: v2 added the "recovery" section (crash-restart
    recovery cost per protocol); v3 added the "storage" section (durable
    write-path and fault-atlas accounting) and the local-replay fields in
    "recovery" rows; v4 split symmetric from asymmetric crypto counters
    ("hmacs"/"hmac_ns"/"verify_cached" in crypto objects, "auth" and
    "hmacs_per_batch" in phase rows) and added the "modexp"
    micro-benchmark section with its Montgomery-vs-Knuth verdicts; v5
    added the "timing" section (the {!Experiments.timeout_sensitivity}
    sweep: premature fail-signals and install churn versus the static
    delay-estimate multiplier, plus the adaptive-estimator row) and its
    static-vs-adaptive verdicts; v6 added the "ablations" section (the
    {!Experiments.dumb_process_ablation} and
    {!Experiments.pair_link_ablation} rows) and their verdicts. *)

val schema_version : int

val json_of_series : Experiments.series -> Sof_util.Json.t
val json_of_failover_series : Experiments.failover_series -> Sof_util.Json.t
val json_of_crypto : Trace.crypto -> Sof_util.Json.t
val json_of_phase_stat : Metrics.phase_stat -> Sof_util.Json.t
val json_of_breakdown : Metrics.breakdown -> Sof_util.Json.t

val json_of_recovery : string * Metrics.recovery -> Sof_util.Json.t
(** One labelled {!Metrics.recovery} as a "recovery" row: restart counts,
    local-replay counts, transfer outcomes, checkpoint/truncation totals,
    mean restart-to-rejoin latency ([null] when nothing recovered) and
    peak retained log. *)

val json_of_storage_row :
  string * Metrics.recovery * Metrics.storage -> Sof_util.Json.t
(** One protocol's durable-campaign accounting as a "storage" row: how
    recovery split between local replay and state transfer, the durable
    write path's volume (appends, syncs, checkpoint writes, drops), the
    replayed/damaged entry counts, and the fault atlas's hits. *)

val find_breakdown :
  Metrics.breakdown list ->
  protocol:string ->
  auth:string ->
  Metrics.breakdown option
(** First breakdown matching both the protocol label ("SC", "BFT", ...)
    and the wire-auth mode ("sign" or "mac"). *)

val phase_verdicts : Metrics.breakdown list -> (string * bool) list
(** The critical-path claims decided mechanically from the signed-mode
    breakdowns: SC shows two wide phases to BFT's three, a smaller n-to-n
    message share, and fewer signature verifications per batch. *)

val mac_verdicts : Metrics.breakdown list -> (string * bool) list
(** The authenticator-vector claims, decided from an SC signed/mac
    breakdown pair: under MAC wire auth SC's asymmetric verifies/batch
    stay within the accountability residue (2n: both order signatures at
    each of the n-1 receivers, plus the endorser's base-signature check
    and the coordinator's endorsement check), sit strictly below the
    signed-mode count, and the quorum traffic demonstrably rides MAC
    vectors.  Empty when either breakdown is missing. *)

val modexp_verdicts :
  Experiments.modexp_point list -> (string * bool) list
(** One verdict per micro-benchmark point: the Montgomery path must beat
    the Knuth path at that key size. *)

val timing_verdicts :
  Experiments.timeout_point list -> (string * bool) list
(** The timeout-sensitivity claims, decided from the sweep rows: the
    static x1.0 estimate must accuse a healthy-but-slow pair under the
    gray schedule, the adaptive estimator must emit zero fail-signals on
    the identical schedule (and pass the whole campaign), and
    degradation-liveness must hold on every row.  Empty when the sweep
    was not run. *)

val ablation_verdicts :
  dumb_process:Experiments.dumb_point list ->
  pair_link:Experiments.pair_link_point list ->
  (string * bool) list
(** The ablations' claims: fewer messages with the dumb-process
    optimisation on than off, and SC latency rising strictly with the
    pair-link delay.  Each is absent when its ablation was not run. *)

val json_of_timeout_point : Experiments.timeout_point -> Sof_util.Json.t
(** One sweep row as a "timing" entry: the estimate label and multiplier
    ([null] on the adaptive row), premature fail-signal and install
    counts, the slowest process's delivery count, and the per-row
    degradation-liveness and whole-campaign verdicts. *)

val make :
  seed:int64 ->
  fast:bool ->
  fig4_5:Experiments.series list ->
  ?fig6:Experiments.failover_series list ->
  ?message_counts:(string * int * int) list ->
  ?recovery:(string * Metrics.recovery) list ->
  ?storage:(string * Metrics.recovery * Metrics.storage) list ->
  ?modexp:Experiments.modexp_point list ->
  ?timing:Experiments.timeout_point list ->
  ?dumb_process:Experiments.dumb_point list ->
  ?pair_link:Experiments.pair_link_point list ->
  breakdowns:Metrics.breakdown list ->
  unit ->
  Sof_util.Json.t
(** The whole document.  Verdicts combine
    {!Report.shape_check_results} on [fig4_5] with {!phase_verdicts},
    {!mac_verdicts}, {!modexp_verdicts}, {!timing_verdicts} and
    {!ablation_verdicts}. *)
