(** One replica of any of the four protocols: the only module that knows
    they exist.

    The simulator ([Sof_harness.Cluster]), the model checker's world and
    the TCP runtime each build one {!Config.t} and a {!Context.t} for every
    process, and then hand both here.  [Replica] makes the trusted dealer's
    pre-signed fail-signal, dispatches the driver calls, reads every core's
    delivery log and recovery state through one {!Recovery.kernel} handle,
    and owns the durable-log path the two real drivers share: the
    write-ahead-log payloads, logging a delivery, persisting a stable
    checkpoint and reading a log back for local-first recovery. *)

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

val request_recovery : t -> unit
(** Start state transfer: ask every process for everything above this
    process's delivery point and install what comes back, each certificate,
    image and entry checked under the protocol's trust model.  Called by
    the drivers right after a crash-restart; the cores also call it when
    checkpoint traffic shows them a full interval behind.  Idempotent while
    a fetch is in flight. *)

val recover_local :
  t -> cert:Checkpoint.cert option -> image:string -> entries:Checkpoint.entry list -> bool
(** Install locally persisted state (WAL replay) as a synthetic self-offer,
    verified exactly like a peer's state-transfer response, so damaged or
    tampered suffixes are excluded rather than installed.  Returns whether
    delivery advanced; callers escalate to {!request_recovery} when the
    local log was damaged or insufficient. *)

val latest_stable : t -> (Checkpoint.cert * string) option
(** Latest stable checkpoint certificate with its image bytes — what a
    durable driver persists alongside the write-ahead log. *)

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

(** {1 Durable log}

    Decoders treat their bytes as hostile: a torn or corrupt frame that
    slipped past the log's checksum comes back as [None]. *)

val encode_checkpoint_payload : Checkpoint.cert -> string -> string
val decode_checkpoint_payload : string -> (Checkpoint.cert * string) option
val encode_entry_payload : Checkpoint.entry -> string
val decode_entry_payload : string -> Checkpoint.entry option

val log_delivery : Config.t -> Sof_storage.Wal.t -> seq:int -> Batch.t -> int
(** Append and sync the entry for a delivered batch, digested under the
    configuration's digest (the one the protocol checks replayed entries
    under).  Returns the payload size. *)

val persist_checkpoint : t -> Sof_storage.Wal.t -> int option
(** Start a fresh log epoch headed by the latest stable checkpoint, if
    any.  Returns the payload size. *)

type replayed = {
  cert : Checkpoint.cert option;
  image : string;
  entries : Checkpoint.entry list;
  damaged : bool;  (** the log ended in damage or a frame did not decode *)
  bytes : int;  (** payload bytes read back *)
}

val read_log : Sof_storage.Wal.t -> replayed
(** Decode what the log held at attach time, then turn its epoch over (to
    the recovered checkpoint, or empty) so re-deliveries during replay are
    logged afresh rather than behind the frames being replayed. *)

val recover_from_log : t -> replayed -> bool
(** {!recover_local} over a read log.  [false] when the log was damaged or
    delivery did not advance: the caller then calls {!request_recovery}. *)
