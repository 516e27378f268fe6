(** Phase-span extraction and validation over the cluster event log.

    The protocols emit {!Sof_protocol.Context.Span_open} /
    [Span_close] markers around each batch's lifecycle and each
    protocol phase (see [Context.phase]).  This module turns the raw
    [(time, process, event)] rows of {!Cluster.events} into matched
    spans, checks the structural invariants the property suite pins
    down, and reduces per-process spans to cluster-wide phase
    intervals for {!Metrics.phase_breakdown}.

    Everything here is pure; no simulator state is touched. *)

type row = Sof_sim.Simtime.t * int * Sof_protocol.Context.event

type span = {
  proc : int;
  phase : Sof_protocol.Context.phase;
  seq : int;
  opened_at : Sof_sim.Simtime.t;
  closed_at : Sof_sim.Simtime.t;
}

(** {2 Crypto-operation accounting} *)

type crypto = {
  signs : int;  (** asymmetric (scheme) signatures produced *)
  verifies : int;  (** asymmetric (scheme) signatures checked *)
  hmacs : int;
      (** symmetric operations: MAC-vector tags computed on send plus
          slice checks on receive (0 unless wire auth is MAC) *)
  sign_ns : int;  (** simulated CPU time charged for signing *)
  verify_ns : int;  (** simulated CPU time charged for verifying *)
  hmac_ns : int;  (** simulated CPU time charged for symmetric ops *)
  verify_cached : int;
      (** asymmetric verifies answered from the amortization cache —
          no CPU charged, not counted in [verifies] *)
  digest_bytes : int;
  digest_ns : int;
}

val zero_crypto : crypto
val add_crypto : crypto -> crypto -> crypto
val total_crypto : crypto list -> crypto

(** {2 Per-message-tag send accounting} *)

type msg_count = { tag : string; msgs : int; bytes : int }

val merge_msg_counts : msg_count list list -> msg_count list
(** Sum counts across processes, grouped by tag, sorted by tag. *)

(** {2 Span matching} *)

val spans : row list -> span list
(** The matched spans only. *)

val balanced : row list -> bool
(** Every open has exactly one close and vice versa, per
    (process, phase, seq). *)

val monotone : row list -> bool
(** Per-process event timestamps never decrease. *)

val nested : row list -> bool
(** Every {!Sof_protocol.Context.batch_scoped} phase span lies within the
    batch span of the same process and sequence.  Fail-over spans are
    exempt: they outlive batches by design. *)

(** {2 Cluster-wide phase intervals} *)

type interval = {
  i_phase : Sof_protocol.Context.phase;
  i_seq : int;
  i_start : Sof_sim.Simtime.t;  (** earliest open across processes *)
  i_end : Sof_sim.Simtime.t;  (** latest close across processes *)
  i_procs : int;  (** processes contributing a balanced span *)
}

val intervals : row list -> interval list
(** One interval per (phase, seq) with at least one balanced span,
    sorted by sequence then phase name. *)

val width_ms : interval -> float
