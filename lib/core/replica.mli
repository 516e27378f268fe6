(** The process shell: one replica of any of the four protocols, the only
    module that knows they exist, and the owner of its lifecycle.

    The simulator ([Sof_harness.Cluster]), the model checker's world and
    the TCP runtime each build one {!Config.t} and, per process, a
    {!Context.t} of what differs between them: clock, crypto and charging,
    transport, timers, the event hook and the mounted disk.  The shell makes
    the trusted dealer's pre-signed fail-signal, builds each incarnation's
    core over a fresh state machine, and reads every core's log and
    recovery state through one {!Recovery.kernel} handle.  The kernel owns
    the write-ahead log on {!Context.store}: a driver never writes to it.

    {b The crash rule.}  Between {!crash} and {!restart} a process runs no
    network or client handler, fires no timer, emits no event and so
    writes nothing to its disk, in every driver. *)

type kind = Config.kind = Sc_protocol | Scr_protocol | Bft_protocol | Ct_protocol

val kinds : kind list
(** All four, in declaration order. *)

val name : kind -> string
(** ["sc"], ["scr"], ["bft"] or ["ct"]: the command line's spelling. *)

val scheme : kind -> Sof_crypto.Scheme.t -> Sof_crypto.Scheme.t
(** The scheme a deployment of [kind] signs with: CT uses no cryptography
    and gets {!Sof_crypto.Scheme.null}; the others keep the one given. *)

type core = Sc of Sc.t | Scr of Scr.t | Bft of Bft.t | Ct of Ct.t
(** One incarnation's protocol process. *)

type t

val spawn :
  config:Config.t ->
  keyring:Sof_crypto.Keyring.t ->
  ?fault:(int -> Fault.t) ->
  machine:(unit -> Sof_smr.State_machine.t) ->
  ?on_reply:(int -> Sof_smr.Request.t -> string -> unit) ->
  (int -> Context.t) ->
  t array
(** Every process of a [config.kind] deployment, not yet started: process
    [i] acts through [context i] with [fault i] (default honest; CT ignores
    it).  A pair member first receives the fail-signal its counterpart
    signs through [keyring] (the trusted dealer of Section 3.2).  Each
    incarnation delivers into a fresh [machine ()] and calls [on_reply i]
    (default: nothing) with every request it applies and the reply. *)

val core : t -> core
(** The current incarnation. *)

val machine : t -> Sof_smr.State_machine.t
(** The current incarnation's service state. *)

(** {1 Driving a process} *)

val start : t -> unit
(** Start the first incarnation's timers. *)

val on_request : t -> Sof_smr.Request.t -> unit
(** A client request; dropped while crashed. *)

val on_message : t -> src:int -> Message.envelope -> unit
(** A protocol message; dropped while crashed. *)

val crash : t -> unit
(** Silence the process now: every timer it armed and every event it would
    emit are dead from this instant, and handlers are dropped until
    {!restart}.  The driver cuts the network and crashes the disk.  A
    no-op when already crashed. *)

val restart : t -> unit
(** Bring a crashed process back with empty volatile state: a fresh core
    over a fresh machine, [Node_restarted] emitted, started, then recovered
    — its own write-ahead log replayed when the context has a durable
    store, verified exactly like a peer's state-transfer offer, and the
    cluster asked for whatever the log did not hold (see
    {!Recovery.recover}).  A no-op unless crashed. *)

val crashed : t -> bool

(** {1 The shared kernel}

    Read and driven through the core's {!Recovery.hooks}, the same for all
    four protocols. *)

val kernel : t -> Recovery.kernel

val log_length : t -> int
(** Retained order-log length — what truncation keeps bounded. *)

val stable_checkpoint_seq : t -> int
(** Latest stable checkpoint sequence number (0 when none). *)

val delivered_seq : t -> int
(** Highest sequence number delivered to the service. *)

val max_committed : t -> int
(** Highest sequence number this process has seen committed. *)

val client_marks : t -> (int * int) list
(** Per-client delivery high-water marks, sorted by client. *)
