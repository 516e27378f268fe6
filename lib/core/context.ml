type timer = { cancel : unit -> unit }

type timer_kind = Tick | Watchdog

let timer_kind_name = function Tick -> "tick" | Watchdog -> "watchdog"

type phase =
  | Batch_phase
  | Endorse_phase
  | Order_phase
  | Ack_phase
  | Pre_prepare_phase
  | Prepare_phase
  | Commit_phase
  | View_change_phase
  | Install_phase
  | Failover_phase
  | Checkpoint_phase
  | Recovery_phase

let phase_name = function
  | Batch_phase -> "batch"
  | Endorse_phase -> "endorse"
  | Order_phase -> "order"
  | Ack_phase -> "ack"
  | Pre_prepare_phase -> "pre_prepare"
  | Prepare_phase -> "prepare"
  | Commit_phase -> "commit"
  | View_change_phase -> "view_change"
  | Install_phase -> "install"
  | Failover_phase -> "failover"
  | Checkpoint_phase -> "checkpoint"
  | Recovery_phase -> "recovery"

let all_phases =
  [ Batch_phase; Endorse_phase; Order_phase; Ack_phase; Pre_prepare_phase;
    Prepare_phase; Commit_phase; View_change_phase; Install_phase; Failover_phase;
    Checkpoint_phase; Recovery_phase ]

type event =
  | Batched of { seq : int; requests : int; bytes : int }
  | Committed of { seq : int; digest : string; keys : Sof_smr.Request.key list }
  | Delivered of { seq : int; batch : Batch.t }
  | Fail_signal_emitted of { pair : int; value_domain : bool }
  | Fail_signal_observed of { pair : int }
  | Coordinator_installed of { rank : int }
  | View_installed of { v : int }
  | Pair_recovered of { pair : int }
  | Value_fault_detected of { pair : int }
  | Span_open of { phase : phase; seq : int }
  | Span_close of { phase : phase; seq : int }
  | Checkpoint_stable of { seq : int; digest : string }
  | Log_truncated of { upto : int; retained : int }
  | State_transfer_started of { have : int }
  | State_transfer_installed of { seq : int; entries : int }
  | State_transfer_rejected of { from : int }
  | Node_restarted
  | Wal_replayed of { seq : int; entries : int; damaged : bool }

type t = {
  id : int;
  now : unit -> Sof_sim.Simtime.t;
  sign : string -> string;
  verify : signer:int -> msg:string -> signature:string -> bool;
  sign_acc : string -> string;
  verify_acc : signer:int -> msg:string -> signature:string -> bool;
  digest_charge : int -> unit;
  send : dst:int -> Message.envelope -> unit;
  multicast : dsts:int list -> Message.envelope -> unit;
  set_timer : ?kind:timer_kind -> delay:Sof_sim.Simtime.t -> (unit -> unit) -> timer;
  deliver : seq:int -> Batch.t -> unit;
  emit : event -> unit;
  snapshot : unit -> string;
  restore : string -> unit;
}

let null_timer = { cancel = (fun () -> ()) }

let pp_event fmt = function
  | Batched { seq; requests; bytes } ->
    Format.fprintf fmt "batched(seq=%d, %d reqs, %dB)" seq requests bytes
  | Committed { seq; keys; _ } ->
    Format.fprintf fmt "committed(seq=%d, %d reqs)" seq (List.length keys)
  | Delivered { seq; batch } ->
    Format.fprintf fmt "delivered(seq=%d, %a)" seq Batch.pp batch
  | Fail_signal_emitted { pair; value_domain } ->
    Format.fprintf fmt "fail_signal_emitted(pair=%d, %s)" pair
      (if value_domain then "value" else "time")
  | Fail_signal_observed { pair } -> Format.fprintf fmt "fail_signal_observed(pair=%d)" pair
  | Coordinator_installed { rank } -> Format.fprintf fmt "coordinator_installed(%d)" rank
  | View_installed { v } -> Format.fprintf fmt "view_installed(%d)" v
  | Pair_recovered { pair } -> Format.fprintf fmt "pair_recovered(%d)" pair
  | Value_fault_detected { pair } -> Format.fprintf fmt "value_fault_detected(%d)" pair
  | Span_open { phase; seq } -> Format.fprintf fmt "span_open(%s, %d)" (phase_name phase) seq
  | Span_close { phase; seq } -> Format.fprintf fmt "span_close(%s, %d)" (phase_name phase) seq
  | Checkpoint_stable { seq; _ } -> Format.fprintf fmt "checkpoint_stable(seq=%d)" seq
  | Log_truncated { upto; retained } ->
    Format.fprintf fmt "log_truncated(upto=%d, retained=%d)" upto retained
  | State_transfer_started { have } ->
    Format.fprintf fmt "state_transfer_started(have=%d)" have
  | State_transfer_installed { seq; entries } ->
    Format.fprintf fmt "state_transfer_installed(seq=%d, +%d entries)" seq entries
  | State_transfer_rejected { from } ->
    Format.fprintf fmt "state_transfer_rejected(from=%d)" from
  | Node_restarted -> Format.fprintf fmt "node_restarted"
  | Wal_replayed { seq; entries; damaged } ->
    Format.fprintf fmt "wal_replayed(seq=%d, +%d entries%s)" seq entries
      (if damaged then ", damaged" else "")

(* ------------------------------------------------------------- signing *)

(* Accountable bodies (orders, fail-signals, checkpoints) are signed with
   the transferable mechanism; everything else uses the wire mode, which
   may be a cheap MAC authenticator vector. *)
let signer_for t body = if Message.accountable_body body then t.sign_acc else t.sign

let verifier_for t body = if Message.accountable_body body then t.verify_acc else t.verify

let make_signed t body = Message.sign ~sender:t.id ~sign:(signer_for t body) body

let endorse t (env : Message.envelope) =
  Message.endorse ~endorser:t.id ~sign:(signer_for t env.Message.body) env

let authentic t (env : Message.envelope) =
  Message.verify ~verify:(verifier_for t env.Message.body) env
