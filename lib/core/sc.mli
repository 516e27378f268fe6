(** The SC order protocol (paper Sections 3–4.3).

    Signal-on-crash set-up under assumptions 3(a): pair links are
    synchronous with accurate delay estimates, and the processes of a pair
    fail sequentially, never together.  n = 3f+1 processes: 2f+1 replicas
    p1..p(2f+1) plus f shadows p'1..p'f.

    Fail-free flow (three phases, Figure 3a):
    - the coordinator primary [p_c] decides [order<c, o, D(m)>], signs it and
      sends it {e only} to its shadow (1-to-1);
    - the shadow checks the decision in value and time domains, double-signs
      and multicasts; the primary forwards the endorsed order to everyone
      (2-to-n);
    - every process acks to all and commits on (n-f) ack-or-order sources
      (n-to-n; steps N1–N3).

    On a value- or time-domain failure inside the coordinator pair, the
    non-faulty member double-signs the fail-signal it was supplied with at
    initialisation and broadcasts it; the install part (IN1–IN5) then moves
    the coordinator role to the next candidate.  Installed-away pairs become
    "dumb" — they keep executing but no longer transmit — shrinking n by 2
    and f by 1 (first optimisation of Section 4.3); batching is the second
    optimisation.

    A process is driven by {!on_request}, {!on_message} and its own timers;
    committed batches flow out through the context's [deliver] callback in
    strict sequence order. *)

type t

val create :
  ctx:Context.t ->
  config:Config.t ->
  ?fault:Fault.t ->
  ?counterpart_fail_signal:string ->
  unit ->
  t
(** [counterpart_fail_signal] is the fail-signal signature this process's
    pair counterpart produced at system initialisation (Section 3.2); it must
    be given for paired processes and omitted for unpaired ones. *)

val start : t -> unit
(** Arm timers (batching at the initial coordinator primary, pair
    heartbeats).  Call once after the whole cluster is wired. *)

val on_request : t -> Sof_smr.Request.t -> unit
(** A client request arrives (clients broadcast to all processes). *)

val on_message : t -> src:int -> Message.envelope -> unit
(** A protocol message arrives from transport neighbour [src]. *)

(** {1 Introspection} *)

val id : t -> int
val coordinator_rank : t -> int
(** Rank (1-based) of the coordinator candidate this process currently
    follows. *)

val is_installing : t -> bool
val has_fail_signalled : t -> bool
val is_dumb : t -> bool
val pending_requests : t -> int

(** {1 Checkpoints and state transfer}

    Enabled by [Config.checkpoint_interval > 0].  At each boundary the
    coordinator primary signs its state digest and sends it to its shadow,
    which endorses after comparing against its own boundary image — at most
    one pair member is faulty, so the double signature carries at least one
    correct process's word for the digest.  The unpaired last candidate
    certifies with a single signature (by the sequential-failure assumption
    it is correct whenever it coordinates). *)

val kernel : t -> Recovery.kernel
(** The shared delivery log and state transfer; each transferred log entry
    needs f+1 matching claims. *)
