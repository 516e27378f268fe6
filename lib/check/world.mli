(** A checker-owned world: the protocol cores of one tiny model, wired to
    contexts the checker controls instead of the discrete-event engine.

    Where {!Sof_harness.Cluster} routes sends through a simulated network
    and timers through the engine's event queue, a world parks every send
    in a pending pool and every armed timer in a record list, and does
    {e nothing} until {!apply} is called with a {!Schedule.action}.  The
    schedule is thus the complete source of nondeterminism: building a
    world from the same {!Model.spec} and applying the same actions
    reproduces the same run, bit for bit.

    Worlds cannot be snapshotted (protocol state is opaque and mutable);
    the explorer advances a world in place along one branch and
    re-executes from {!of_base} to revisit a prefix. *)

type t

type base
(** The shared half of a model's worlds: its configuration, process
    count, keyring, client requests and their keys, and a memo of the
    signatures the keyring issued.  Every world built from one [base]
    shares it; sharing is exact, because the checker's signing mechanisms
    (mock HMAC, or none for CT) are deterministic and never draw from the
    keyring's RNG. *)

val base : Model.spec -> base
(** Derive the configuration, keys (from [spec.seed] via
    {!Sof_util.Rng.substream}) and requests of a model. *)

val of_base : base -> t
(** Construct processes, state machines and the presigned fail-signals of
    paired protocols; start every process and broadcast the model's client
    requests.  Initial sends and timers from [start] and [on_request] are
    parked, not executed. *)

val build : Model.spec -> t
(** [of_base (base spec)]: a world with nothing shared. *)

val sign : base -> signer:int -> string -> string
(** How every world of [base] signs: {!Sof_crypto.Keyring.sign} on the
    base's keyring, computed once per (signer, bytes) and then looked up.
    Non-empty signatures are recorded; the memo is emptied when it holds
    8,192, so a long search computes some again. *)

val verify : base -> signer:int -> msg:string -> signature:string -> bool
(** How every world of [base] verifies, equal to
    {!Sof_crypto.Keyring.verify} on the base's keyring: [true] at once when
    [signature] is byte-equal to the one recorded for [(signer, msg)],
    otherwise the keyring's answer, so a forged, tampered or re-attributed
    triple is still rejected. *)

val spec : t -> Model.spec
val process_count : t -> int
val clock : t -> Sof_sim.Simtime.t
val events : t -> Sof_harness.Invariants.events
val crashed_list : t -> int list

val pending : t -> (int * int * string) list
(** Every in-flight message as [(src, dst, payload)], oldest first. *)

val enabled : t -> Schedule.action list
(** Every action applicable now, in canonical order: deliveries of pending
    messages to live destinations (by message id), then the single
    earliest-due eligible timer ([Watchdog] timers only when the spec
    explores them), then crashes while budget remains. *)

val apply : t -> Schedule.action -> (unit, string) result
(** Execute one action, running protocol handlers to quiescence (their
    sends and timer arms are parked).  Firing a timer advances the virtual
    clock to its due instant.  Errors — unknown message id, non-earliest
    timer, exhausted crash budget — indicate an infeasible schedule, which
    replay and shrinking treat as "drop this candidate". *)

val action_target : t -> Schedule.action -> int option
(** The process an action touches: a delivery's destination, a crash's
    victim, [None] for timer fires (the clock is global).  Two actions
    with distinct targets commute — the checker's independence relation. *)

val ample_candidate : t -> Schedule.action option
(** A currently enabled delivery whose destination's dependences are all
    in plain sight: messages to it still blocked behind a channel head are
    vote-like (ack / prepare / commit / checkpoint — per-sender first-wins
    accumulation into monotone quorum counters, so their arrival is a
    multiset insertion that commutes), every eligible timer it owns is the
    single currently enabled fire, and no crash of it is enabled.  [None]
    when no enabled action qualifies.  The explorer validates a candidate
    empirically (one-step diamonds at fingerprint granularity against each
    enabled move not independent by target) before exploring it as the
    state's only successor. *)

val fingerprint : t -> int64
(** Canonical state hash for the visited set.  Includes per-process
    protocol introspection fields, state-machine digests, per-process
    event sequences, the pending pool as a sorted (src, dst, payload)
    multiset, armed timers as (owner, kind, due − clock), and the
    remaining fault budget.  Excludes the clock, allocation ids and event
    timestamps, so commuting interleavings and idle re-arm loops hash
    equal. *)

val violation : t -> Sof_harness.Invariants.result option
(** First failing safety predicate, if any: agreement, commit coherence,
    prefix consistency, validity (at-most-once), checkpoint agreement and
    fail-signal soundness, all over the world's event log with the model's
    Byzantine process excluded from the honest set. *)

val describe_action : t -> Schedule.action -> string
(** Human description of an action against the current state (message
    body tag and route, timer kind and relative due) — call before
    applying it. *)
