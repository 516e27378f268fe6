(** One replica of any of the four protocols: the only module that knows
    they exist.

    The simulator ([Sof_harness.Cluster]), the model checker's world and
    the TCP runtime each build one {!Config.t} and a {!Context.t} for every
    process, and then hand both here.  [Replica] makes the trusted dealer's
    pre-signed fail-signal, dispatches the driver calls, and reads every
    core's delivery log and recovery state through one {!Recovery.kernel}
    handle.  The kernel owns the write-ahead log on the context's
    {!Context.store}: a driver mounts a disk and never writes to it. *)

type kind = Config.kind = Sc_protocol | Scr_protocol | Bft_protocol | Ct_protocol

val kinds : kind list
(** All four, in declaration order. *)

val name : kind -> string
(** ["sc"], ["scr"], ["bft"] or ["ct"]: the command line's spelling. *)

val scheme : kind -> Sof_crypto.Scheme.t -> Sof_crypto.Scheme.t
(** The scheme a deployment of [kind] signs with: CT uses no cryptography
    and gets {!Sof_crypto.Scheme.null}; the others keep the one given. *)

type t = Sc of Sc.t | Scr of Scr.t | Bft of Bft.t | Ct of Ct.t

val create :
  ctx:Context.t ->
  config:Config.t ->
  keyring:Sof_crypto.Keyring.t ->
  ?fault:Fault.t ->
  unit ->
  t
(** A fresh process [ctx.id] of [config.kind].  A pair member first
    receives the fail-signal its counterpart signs through [keyring] (the
    trusted dealer of Section 3.2).  CT ignores [fault]. *)

(** {1 Dispatch}

    Each call goes to the function of the same name in the process's
    protocol module. *)

val start : t -> unit
val on_request : t -> Sof_smr.Request.t -> unit
val on_message : t -> src:int -> Message.envelope -> unit

(** {1 The shared kernel}

    Read and driven through the core's {!Recovery.hooks}, the same for all
    four protocols. *)

val kernel : t -> Recovery.kernel

val recover : t -> unit
(** Bring a process back right after a crash-restart and {!start}: replay
    its own write-ahead log when the context has a durable store, verified
    exactly like a peer's state-transfer offer, and ask the cluster for
    whatever the log did not hold (see {!Recovery.recover}). *)

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
