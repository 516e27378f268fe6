(** One replica of any of the four protocols: the only module that knows
    they exist.

    The simulator ([Sof_harness.Cluster]), the model checker's world and
    the TCP runtime each build a {!Context.t} for every process and then
    hand it here.  [Replica] builds the protocol configuration, makes the
    trusted dealer's pre-signed fail-signal, dispatches the driver calls,
    and owns the durable-log path the two real drivers share: the
    write-ahead-log payloads, logging a delivery, persisting a stable
    checkpoint and reading a log back for local-first recovery. *)

type kind = Sc_protocol | Scr_protocol | Bft_protocol | Ct_protocol

val process_count : kind -> f:int -> int
(** SC 3f+1, SCR 3f+2, BFT 3f+1, CT 2f+1. *)

val kinds : kind list
(** All four, in declaration order. *)

val name : kind -> string
(** ["sc"], ["scr"], ["bft"] or ["ct"]: the command line's spelling. *)

(** {1 Process layout}

    The same facts {!Config} answers for a built configuration, from the
    kind and [f] alone, so event-log checks and fault campaigns need no
    configuration. *)

val pair_count : kind -> f:int -> int
(** SC f, SCR f+1; BFT and CT have no pairs. *)

val pair_rank : kind -> f:int -> int -> int option
(** The 1-based rank of the pair process [p] belongs to, if any. *)

val counterpart : kind -> f:int -> int -> int option
(** The other member of [p]'s pair, if [p] is paired. *)

val scheme : kind -> Sof_crypto.Scheme.t -> Sof_crypto.Scheme.t
(** The scheme a deployment of [kind] signs with: CT uses no cryptography
    and gets {!Sof_crypto.Scheme.null}; the others keep the one given. *)

type config

val make_config :
  kind:kind ->
  ?batching_interval:Sof_sim.Simtime.t ->
  ?batch_size_limit:int ->
  ?digest:Sof_crypto.Digest_alg.t ->
  ?pair_delay_estimate:Sof_sim.Simtime.t ->
  ?heartbeat_interval:Sof_sim.Simtime.t ->
  ?dumb_optimization:bool ->
  ?checkpoint_interval:int ->
  ?timing:Config.timing ->
  ?unsafe_digest_blind_votes:bool ->
  f:int ->
  unit ->
  config
(** Forwards to {!Config.make} (SC, SCR), {!Bft.make_config} or
    {!Ct.make_config}; each kind reads only the arguments its own
    constructor takes, and CT keeps its own digest.
    @raise Config.Invalid_config as those constructors do. *)

val pairs : config -> (int * int) list
(** [(primary, shadow)] of every pair; empty for BFT and CT. *)

val wal_digest : config -> Sof_crypto.Digest_alg.t
(** The digest the protocol checks replayed log entries under. *)

type t = Sc of Sc.t | Scr of Scr.t | Bft of Bft.t | Ct of Ct.t

val create :
  ctx:Context.t ->
  config:config ->
  keyring:Sof_crypto.Keyring.t ->
  ?fault:Fault.t ->
  unit ->
  t
(** A fresh process [ctx.id].  A pair member first receives the
    fail-signal its counterpart signs through [keyring] (the trusted
    dealer of Section 3.2).  CT ignores [fault]. *)

(** {1 Dispatch}

    Each call goes to the function of the same name in the process's
    protocol module. *)

val start : t -> unit
val on_request : t -> Sof_smr.Request.t -> unit
val on_message : t -> src:int -> Message.envelope -> unit
val request_recovery : t -> unit

val recover_local :
  t -> cert:Checkpoint.cert option -> image:string -> entries:Checkpoint.entry list -> bool

val latest_stable : t -> (Checkpoint.cert * string) option
val log_length : t -> int
val stable_checkpoint_seq : t -> int
val delivered_seq : t -> int
val client_marks : t -> (int * int) list

(** {1 Durable log}

    Decoders treat their bytes as hostile: a torn or corrupt frame that
    slipped past the log's checksum comes back as [None]. *)

val encode_checkpoint_payload : Checkpoint.cert -> string -> string
val decode_checkpoint_payload : string -> (Checkpoint.cert * string) option
val encode_entry_payload : Checkpoint.entry -> string
val decode_entry_payload : string -> Checkpoint.entry option

val log_delivery : config -> Sof_storage.Wal.t -> seq:int -> Batch.t -> int
(** Append and sync the entry for a delivered batch, digested under
    {!wal_digest}.  Returns the payload size. *)

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
