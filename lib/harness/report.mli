(** Plain-text rendering of experiment results, one table per paper
    figure.

    All output flows through one formatter (stdout by default); this module
    is the single sanctioned print path in the library (lint rule R5). *)

val set_formatter : Format.formatter -> unit
(** Redirect every subsequent table; useful for capturing reports in tests
    or embedding them in a larger document. *)

val print_fig4 : title:string -> Experiments.series list -> unit
(** Order latency (ms) vs batching interval, one column per protocol. *)

val print_fig5 : title:string -> Experiments.series list -> unit
(** Throughput (req/s) vs batching interval. *)

val print_fig6 : title:string -> Experiments.failover_series list -> unit
(** Fail-over latency vs measured backlog size. *)

val print_message_counts : (string * int * int) list -> unit

val print_recovery_costs : (string * Metrics.recovery) list -> unit
(** The {!Experiments.recovery_costs} table: restarts recovered, mean
    restart-to-rejoin latency, transfer outcomes, peak retained log. *)

val print_thresholds : (string * int * int) list -> unit
(** [(scheme, sc_ms, bft_ms)] rows of {!Experiments.saturation_threshold},
    each with the paper's verdict that BFT's threshold is no smaller. *)

val print_dumb_ablation : Experiments.dumb_point list -> unit
(** Messages and throughput with the dumb-process optimisation on and
    off. *)

val print_pair_link_ablation : Experiments.pair_link_point list -> unit
(** SC order latency per pair-link delay. *)

val shape_check_results : Experiments.series list -> (string * bool) list
(** The paper's qualitative claims evaluated against the series (CT lowest,
    SC below BFT, saturation ordering), as [(claim, pass)] rows; empty when
    a protocol series has no points.  Steady state is the mean over the
    three largest intervals, where a saturated point counts as worse than
    any latency.  The plain-text
    report and the JSON benchmark document both render these. *)

val print_shape_checks : Experiments.series list -> unit
(** {!shape_check_results} as PASS/FAIL lines. *)

val print_phase_breakdowns : Metrics.breakdown list -> unit
(** One block per protocol: batch-span width, wide-phase count, n-to-n
    share, per-batch crypto ops, then a per-phase table. *)

val print_json : Sof_util.Json.t -> unit
(** The JSON document, compact, on one line through the report sink. *)
