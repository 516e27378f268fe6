(** The CT crash-tolerant baseline (paper Section 5).

    "CT is simply derived from SC, with no process being paired and no
    cryptographic techniques used": n = 2f+1 processes tolerating f crash
    faults, a fixed-rank coordinator that multicasts its order message
    directly to all (SC's phases 1 and 2 collapse into one 1-to-n
    dissemination), and the same n-to-n ack/commit phase with quorum n-f.

    The paper uses CT only to show how much slower the Byzantine-tolerant
    protocols are than a crash-tolerant one; a simple timeout-based
    coordinator rotation is included so the protocol is live under crash
    faults, but it is not part of the measured scenarios. *)

type t

val create : ctx:Context.t -> service:Recovery.service -> config:Config.t -> t
(** A process suspects a coordinator that leaves a request unordered for
    500 ms (static timing), or for the backed-off round-trip estimate to it
    (adaptive, capped at 64 x 500 ms).  CT reads [f], the batching fields,
    [digest] (always MD5), [checkpoint_interval] and [timing]. *)

val start : t -> unit
val on_request : t -> Sof_smr.Request.t -> unit
val on_message : t -> src:int -> Message.envelope -> unit

val id : t -> int
val coordinator : t -> int
(** Current coordinator's process id. *)

val epoch : t -> int
(** Coordinator rotations this process has gone through (0 = the initial
    coordinator was never suspected) — the rotation-churn measure the
    gray-failure invariants audit. *)

val kernel : t -> Recovery.kernel
(** The shared delivery log and state transfer, under the crash-only model:
    a checkpoint is stable once f+1 distinct processes claim the same state
    digest (no signatures), and any single responder's entries are
    genuine. *)
