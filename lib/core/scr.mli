(** The SCR order protocol: SC extended for the Signal-on-Crash and Recovery
    set-up (paper Section 4.4).

    Under assumptions 3(b) the pair delay estimates are only {e eventually}
    accurate, so non-faulty paired processes may falsely suspect each other
    and fail-signal; SC2 no longer holds and a fail-signalled pair is not
    proof of a fault.  Consequently:

    - every coordinator candidate must be a pair — n = 3f+2 with f+1 pairs;
    - each pair tracks a status in [{up, down, permanently_down}]: a
      time-domain suspicion sets [down] (recoverable — continued mutual
      checking can restore [up]), a value-domain failure sets
      [permanently_down] irreversibly;
    - coordinator changes use a BFT-style view change: for view v the
      candidate pair is c = v mod (f+1) (or f+1 when that is 0).  A
      candidate that is not [up] answers [Unwilling(v)], which makes every
      process echo it back and move to view v+1; a candidate that is [up]
      collects n-f ViewChange messages, computes the new backlog, and
      multicasts an endorsed NewView.

    The fail-free path is exactly SC's, so in the paper's best-case
    measurements SC and SCR behave identically; they differ only under
    failures and suspicions. *)

type t

val create :
  ctx:Context.t ->
  config:Config.t ->
  ?fault:Fault.t ->
  ?counterpart_fail_signal:string ->
  unit ->
  t
(** [config.kind] must be {!Config.Scr_protocol}.
    @raise Config.Invalid_config otherwise, or when a paired process lacks
    [counterpart_fail_signal]. *)

val start : t -> unit
val on_request : t -> Sof_smr.Request.t -> unit
val on_message : t -> src:int -> Message.envelope -> unit

(** {1 Introspection} *)

type status = Up | Down | Permanently_down

val id : t -> int
val view : t -> int
val coordinator_rank : t -> int
(** Candidate pair rank for the current view. *)

val pair_status : t -> status
(** Status of this process's own pair; [Up] for the degenerate case of an
    unpaired process (does not occur in well-formed SCR layouts). *)

val changing_view : t -> bool

(** {1 Checkpoints and state transfer}

    Enabled by [Config.checkpoint_interval > 0].  At each boundary the
    current view's coordinator primary signs its state digest and sends it
    to its shadow, which endorses after comparing against its own boundary
    image; every SCR candidate is a pair, so certificates are always doubly
    signed — at most one pair member is faulty, so the double signature
    carries at least one correct process's word for the digest. *)

val kernel : t -> Recovery.kernel
(** The shared delivery log and state transfer; each transferred log entry
    needs f+1 matching claims. *)
