(** The BFT baseline: Castro & Liskov's PBFT order protocol (OSDI '99), the
    comparison point of the paper's evaluation.

    n = 3f+1 replicas, primary = v mod n.  Fail-free flow (Figure 3b):
    pre-prepare (1-to-n from the primary), prepare (n-to-n; a replica is
    {e prepared} with a matching pre-prepare plus 2f prepares), commit
    (n-to-n; {e committed} with 2f+1 commits).  Requests are batched exactly
    as in SC so the comparison is one-to-one.

    Simplifications relative to the full system (documented in DESIGN.md): a
    compact view change — on timeout a replica broadcasts its prepared set;
    the new primary collects 2f+1 view-change messages and re-issues
    pre-prepares for every prepared order above the highest order it knows
    committed.  PBFT's stable checkpoints and log truncation are implemented
    (off by default via [checkpoint_interval = 0]); neither feature is on
    the fail-free critical path the paper measures. *)

type t

val create : ctx:Context.t -> config:Config.t -> ?fault:Fault.t -> unit -> t
(** A backup suspects a primary that stalls a request for 2 s (static
    timing), or for the backed-off round-trip estimate to it (adaptive,
    capped at 64 x 2 s).  [config.unsafe_digest_blind_votes] turns on the
    digest-blind vote-pooling mutant. *)

val start : t -> unit
val on_request : t -> Sof_smr.Request.t -> unit
val on_message : t -> src:int -> Message.envelope -> unit

val id : t -> int
val view : t -> int
val primary : t -> int
val kernel : t -> Recovery.kernel
(** The shared delivery log and state transfer (PBFT's trust model:
    2f+1-signed checkpoint certificates, f+1 matching claims per
    transferred entry).  A restarted replica asks every replica for
    everything above its delivery point, and checkpoint traffic that shows
    it a full interval behind triggers the same fetch. *)
