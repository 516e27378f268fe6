(** The protocol configuration and process layout of all four protocols.

    The paper's four protocols are one system in four layouts: SC runs
    3f+1 processes with f pairs, SCR 3f+2 with f+1 pairs, BFT 3f+1 and CT
    2f+1, both unpaired.  One record configures any of them, and the layout
    below is computed from its [kind] and [f] alone.

    Process identifiers are dense integers shared with the network layer.
    With [r] replicas ({!replica_count}) and [k] pairs ({!pair_count}):

    - ids [0 .. r-1] are the replica order processes p1 .. pr;
    - ids [r .. r+k-1] are the shadows p'1 .. p'k.

    Pair (coordinator-candidate) ranks are 1-based, matching the paper: pair
    [i] is [{p_i, p'_i}].  In SC the (f+1)-th coordinator candidate is the
    unpaired process p(f+1); in BFT and CT every process is an unpaired
    candidate. *)

exception Invalid_config of string
(** Constructor-time validation failure.  Raised by [make] and the rank
    accessors on out-of-range arguments, and by the protocol [create]
    functions on inconsistent set-ups; caught at the harness/runtime
    boundary. *)

type kind =
  | Sc_protocol
      (** Signal-on-crash set-up: assumptions 3(a) — synchronous pair links
          with accurate delay estimates, sequential failure pattern. *)
  | Scr_protocol
      (** Signal-on-crash-and-recovery set-up: assumptions 3(b) — eventually
          accurate estimates, at most one fault per pair. *)
  | Bft_protocol  (** PBFT, the paper's Byzantine baseline. *)
  | Ct_protocol  (** The crash-tolerant baseline: no pairs, no cryptography. *)

(** How the timeliness timers obtain their delay estimate.

    [Static] is the paper's Sync reading of assumption 3(a): the
    configured [pair_delay_estimate] is trusted as a bound and never
    revised — the behaviour of every release before adaptive timing, so
    seeded runs replay byte-for-byte.  [Adaptive] makes the PSync reading
    of assumption 3(b) operational: processes exchange timestamped probes,
    feed per-link Jacobson estimators, and derive their timeliness
    deadlines from the measured round-trip distribution with exponential
    backoff and a hard cap.  Adaptive timing can only delay or avoid a
    fail-signal, never forge protocol evidence, so it affects liveness
    only — safety never depends on a timer (DESIGN.md section 14). *)
type timing = Static | Adaptive

val timing_name : timing -> string
(** ["static"] or ["adaptive"]. *)

type t = {
  kind : kind;
  f : int;  (** Fault-tolerance parameter, f >= 1. *)
  batching_interval : Sof_sim.Simtime.t;
      (** The coordinator forms at most one batch per interval (paper
          Section 4.3, second optimisation). *)
  batch_size_limit : int;  (** Max encoded request bytes per batch (1 KB). *)
  digest : Sof_crypto.Digest_alg.t;  (** For request/batch digests. *)
  pair_delay_estimate : Sof_sim.Simtime.t;
      (** The differential delay bound used for timeliness checking inside a
          pair (Section 2.1.1).  SC and SCR only. *)
  heartbeat_interval : Sof_sim.Simtime.t;
      (** Mutual-checking cadence inside a pair when there is no protocol
          traffic to check.  SC and SCR only. *)
  dumb_optimization : bool;
      (** The first optimisation of Section 4.3: installed-away pairs turn
          dumb, n shrinks by 2 and f by 1.  On by default; off for ablation
          runs.  SC only. *)
  checkpoint_interval : int;
      (** Every this-many delivered sequence numbers, snapshot and certify a
          checkpoint, truncating the order log behind the latest stable one.
          0 (the default) disables checkpointing entirely — the log grows
          without bound, exactly the pre-checkpoint behaviour. *)
  timing : timing;
      (** [Static] (the default) keeps every timeliness deadline at the
          configured estimate (BFT's and CT's: their suspicion constants);
          [Adaptive] turns on probing and estimator-driven deadlines. *)
  unsafe_digest_blind_votes : bool;
      (** BFT test-only mutant: count prepare/commit votes without matching
          them against the slot's pre-prepared digest, reintroducing the
          vote-pooling safety bug that digest-bound votes fixed.  Exists so
          the model checker's counterexample tests have a real, historically
          observed violation to rediscover; never enable it otherwise. *)
}

val make :
  kind:kind ->
  ?batching_interval:Sof_sim.Simtime.t ->
  ?batch_size_limit:int ->
  ?digest:Sof_crypto.Digest_alg.t ->
  ?pair_delay_estimate:Sof_sim.Simtime.t ->
  ?heartbeat_interval:Sof_sim.Simtime.t ->
  ?dumb_optimization:bool ->
  ?checkpoint_interval:int ->
  ?timing:timing ->
  ?unsafe_digest_blind_votes:bool ->
  f:int ->
  unit ->
  t
(** Defaults: 100 ms interval, 1024-byte batches, MD5 digests, 10 ms
    delay estimate, 20 ms heartbeat, checkpointing off, static timing.  CT
    keeps MD5 whatever [digest] is given.
    @raise Invalid_config when [f < 1], [checkpoint_interval < 0], or any
    of [batching_interval], [pair_delay_estimate], [heartbeat_interval] is
    non-positive. *)

(** {1 Layout} *)

val replica_count : t -> int
(** The processes that are not shadows: [3f+1] for BFT, [2f+1] otherwise. *)

val pair_count : t -> int
(** [f] for SC, [f+1] for SCR, none for BFT and CT. *)

val process_count : t -> int
(** SC 3f+1, SCR 3f+2, BFT 3f+1, CT 2f+1. *)

val candidate_count : t -> int
(** Coordinator candidates: [f+1] for SC and SCR, every process for BFT
    and CT. *)

val primary_of_pair : t -> int -> int
(** Process id of [p_r] for candidate rank [r] (1-based).
    @raise Invalid_config on out-of-range ranks. *)

val shadow_of_pair : t -> int -> int
(** Process id of [p'_r]. *)

val pair_rank_of : t -> int -> int option
(** [Some r] when the process belongs to pair [r]. *)

val counterpart : t -> int -> int option
(** The other member of the process's pair, if paired. *)

val is_shadow : t -> int -> bool

val candidate_members : t -> int -> int list
(** Process ids making up coordinator candidate rank [r]: two for a pair,
    one for an unpaired candidate. *)

val candidate_is_pair : t -> int -> bool

val pairs : t -> (int * int) list
(** [(primary, shadow)] of every pair, by rank. *)

val all_processes : t -> int list
