(** Runtime context for a protocol process: what a driver supplies.

    Protocol modules are written against this record of capabilities, so the
    same code runs under the discrete-event harness (which charges CPU time
    for [sign]/[verify] and routes [send] through the simulated network), the
    model checker and the TCP runtime.  Each driver hands it to the process
    shell ({!Replica.spawn}), which owns the state machine. *)

type timer = { cancel : unit -> unit }

(** What a timer encodes, from the model checker's point of view.

    [Tick] timers are progress drivers: batching intervals, fault-injection
    delays, fetch retries.  The protocol cannot move without them, so the
    checker must schedule them freely.  [Watchdog] timers encode a synchrony
    assumption — "if X has not happened after [delay], suspect a fault"
    (endorsement watchdogs, heartbeat silence, view-change and suspicion
    timeouts).  Firing a watchdog while the watched message is still in
    flight simulates a timing failure; whether that is in scope depends on
    the protocol's fault model (the paper's SC/SCR assume pair-link
    synchrony, BFT/CT do not), so the checker gates watchdog scheduling per
    protocol.  The harness and runtime ignore the kind: under wall-clock or
    simulated time both kinds just fire at [delay]. *)
type timer_kind = Tick | Watchdog

val timer_kind_name : timer_kind -> string

(** Protocol phases instrumented with [Span_open]/[Span_close] pairs.  A span
    is local to one process; reducers recover a global phase interval as
    [earliest open .. latest close] over all processes for one sequence
    number.  For the per-batch phases the span's [seq] is the order's
    sequence number; for [View_change_phase] it is the view being agreed,
    for [Install_phase] the coordinator rank being installed, and for
    [Failover_phase] the failed pair's rank. *)
type phase =
  | Batch_phase  (** First local knowledge of an order until local commit. *)
  | Endorse_phase  (** SC/SCR 1-to-1: phase-1 order sent/received until the
                       endorsed order is accepted at this pair member. *)
  | Order_phase  (** Dissemination: endorsed-order accept (2-to-n) or CT
                     order receipt (1-to-n) until this process acks. *)
  | Ack_phase  (** n-to-n: own ack sent until local commit. *)
  | Pre_prepare_phase  (** BFT 1-to-n: pre-prepare accept until prepare sent. *)
  | Prepare_phase  (** BFT n-to-n: prepare sent until commit sent. *)
  | Commit_phase  (** BFT n-to-n: commit sent until locally committed. *)
  | View_change_phase  (** SCR/BFT: view change proposed until installed. *)
  | Install_phase  (** SC: install protocol begun until finished. *)
  | Failover_phase  (** Coordinator failure observed until replacement in
                        place (the fail-signal -> install fail-over). *)
  | Checkpoint_phase  (** Boundary delivered until the checkpoint at that
                          sequence number is stable at this process. *)
  | Recovery_phase  (** State transfer begun (request sent) until the
                        certified image is installed; [seq] is the [have]
                        anchor the request was made with. *)

val phase_name : phase -> string
val all_phases : phase list

val batch_scoped : phase -> bool
(** The per-batch protocol phases (endorse, order, ack, pre-prepare,
    prepare, commit): each lies inside the batch span of the same process
    and sequence number.  The batch span itself, the one-at-a-time
    fail-over phases and the checkpoint and recovery spans are not. *)

type event =
  | Batched of { seq : int; requests : int; bytes : int }
      (** The coordinator formed a batch — the latency clock starts here
          (the paper's latency excludes time spent waiting to be batched). *)
  | Committed of { seq : int; digest : string; keys : Sof_smr.Request.key list }
      (** An order became irreversible at this process. *)
  | Delivered of { seq : int; batch : Batch.t }
      (** Batch handed to the service in sequence order. *)
  | Fail_signal_emitted of { pair : int; value_domain : bool }
  | Fail_signal_observed of { pair : int }
  | Coordinator_installed of { rank : int }
      (** SC install part finished (the fail-over latency endpoint). *)
  | View_installed of { v : int }  (** SCR / BFT. *)
  | Pair_recovered of { pair : int }  (** SCR only. *)
  | Value_fault_detected of { pair : int }
  | Span_open of { phase : phase; seq : int }
      (** A phase began at this process.  Emitting spans costs no simulated
          CPU, so instrumentation never perturbs seeded trajectories. *)
  | Span_close of { phase : phase; seq : int }
  | Checkpoint_stable of { seq : int; digest : string }
      (** This process holds a verified certificate for [seq]. *)
  | Log_truncated of { upto : int; retained : int }
      (** Order log truncated at or below [upto]; [retained] orders remain. *)
  | State_transfer_started of { have : int }
      (** This process asked the cluster for everything above [have]. *)
  | State_transfer_installed of { seq : int; entries : int }
      (** A certified image at [seq] (plus [entries] log entries above it)
          was verified and installed. *)
  | State_transfer_rejected of { from : int }
      (** A state-transfer offer from [from] failed verification (bad
          certificate, or image not matching the certified digest). *)
  | Node_restarted
      (** Emitted by the process shell ({!Replica.restart}), not the
          protocol: this process came back from a crash with empty volatile
          state.  Invariants use it to partition a process's deliveries into
          incarnations. *)
  | Wal_replayed of { seq : int; entries : int; damaged : bool }
      (** Emitted by the replica kernel when it restarts over a durable
          {!store}: the local write-ahead log yielded a checkpoint image at
          [seq] plus [entries] logged batches above it.  [damaged] records
          that the log's suffix was torn or corrupt, so recovery must finish
          via peer repair rather than local replay alone. *)

(** A process's durable storage: the write-ahead log on its mounted disk.
    Only the replica kernel ({!Recovery}) reads or writes it — drivers mount
    the disk and hand it over. *)
type store = {
  wal : Sof_storage.Wal.t;
  charge_io : int -> unit;
      (** Account for writing (or reading back) [n] payload bytes and
          syncing; the simulator charges its disk cost model, other drivers
          pass [ignore]. *)
}

type t = {
  id : int;  (** This process's id (network endpoint). *)
  now : unit -> Sof_sim.Simtime.t;
  sign : string -> string;
      (** Sign as this process under the wire authentication mode; the
          harness charges one sign cost (or one authenticator vector under
          MAC mode).  Use for quorum-internal messages whose signatures are
          only ever checked by their direct receivers. *)
  verify : signer:int -> msg:string -> signature:string -> bool;
      (** Check another process's wire signature; charges one verify cost
          (one MAC-slice check under MAC mode). *)
  sign_acc : string -> string;
      (** Sign with the accountable (transferable) mechanism — always a
          scheme signature, never a MAC vector.  Use for bodies a third
          party must be able to verify: orders, fail-signals, checkpoints
          (see {!Message.accountable_body}).  Under [--auth sign] this is
          the same closure as [sign]. *)
  verify_acc : signer:int -> msg:string -> signature:string -> bool;
      (** Verify an accountable signature (see [sign_acc]).  This is the
          path amortized verification may cache. *)
  digest_charge : int -> unit;
      (** Account for hashing [n] bytes (digesting is done with real digest
          functions; this only charges the virtual CPU). *)
  images : Checkpoint.Images.t;
      (** The driver's memo of checkpoint images, one for all its
          processes: the kernel digests every boundary image and every
          offered image through it (after charging [digest_charge]), so
          byte-identical images are hashed once per driver and its
          processes keep one shared copy.  Only one thread may use it. *)
  batches : Checkpoint.Images.t;
      (** The driver's memo of batch digests, one for all its processes
          ({!Checkpoint.batch_window} wide): the kernel digests every batch
          it mints, validates, delivers, serves or checks through it (after
          charging [digest_charge]), so the batch a whole deployment
          delivers is hashed once per driver.  Only one thread may use
          it. *)
  send : dst:int -> Message.envelope -> unit;
  multicast : dsts:int list -> Message.envelope -> unit;
      (** One underlying send per destination; the envelope is signed once. *)
  set_timer : ?kind:timer_kind -> delay:Sof_sim.Simtime.t -> (unit -> unit) -> timer;
      (** Arm a one-shot timer.  [kind] defaults to [Tick]; implementations
          that do not distinguish kinds may ignore it. *)
  emit : event -> unit;  (** Observation hook for tests and experiments. *)
  store : store option;
      (** Durable storage, if any: commit then implies sync, a stable
          checkpoint heads a fresh log epoch, and a restart replays the log
          before asking peers. *)
}

val null_timer : timer

val pp_event : Format.formatter -> event -> unit

(** {2 Signing}

    The one signing path of every protocol core.  Accountable bodies (see
    {!Message.accountable_body}) go through [sign_acc]/[verify_acc], all
    others through the wire mode [sign]/[verify]. *)

val make_signed : t -> Message.body -> Message.envelope
(** Encode the body once and sign it as this process. *)

val endorse : t -> Message.envelope -> Message.envelope
(** Add this process's endorsement over the envelope's body bytes and first
    signature. *)

val authentic : t -> Message.envelope -> bool
(** Verify every signature the envelope carries over its received body
    bytes ({!Message.verify}). *)
