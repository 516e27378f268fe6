module Scheme = Sof_crypto.Scheme
module Keyring = Sof_crypto.Keyring

type kind = Config.kind = Sc_protocol | Scr_protocol | Bft_protocol | Ct_protocol

let kinds = [ Sc_protocol; Scr_protocol; Bft_protocol; Ct_protocol ]

let name = function
  | Sc_protocol -> "sc"
  | Scr_protocol -> "scr"
  | Bft_protocol -> "bft"
  | Ct_protocol -> "ct"

let scheme kind s = match kind with Ct_protocol -> Scheme.null | _ -> s

type core = Sc of Sc.t | Scr of Scr.t | Bft of Bft.t | Ct of Ct.t

type t = {
  incarnate : unit -> core;
  emit : Context.event -> unit;  (* the driver's, ungated *)
  gen : int ref;
      (* bumped at each crash: the timers and events of every earlier
         incarnation are dead from that instant on *)
  mutable crashed : bool;
  mutable core : core;
}

(* The trusted dealer supplies each pair member with a fail-signal signed
   by its counterpart (Section 3.2). *)
let counterpart_fail_signal keyring config i =
  match (Config.pair_rank_of config i, Config.counterpart config i) with
  | Some rank, Some counterpart ->
    let body = Message.encode_body (Message.Fail_signal { pair = rank }) in
    Some (Keyring.sign keyring ~signer:counterpart body)
  | _ -> None

let create ~(ctx : Context.t) ~(config : Config.t) ~keyring ~fault ~machine ~on_reply =
  let counterpart_fail_signal = counterpart_fail_signal keyring config ctx.Context.id in
  let gen = ref 0 in
  (* One incarnation: a fresh machine and core, whose timers and events
     stay live only until the next crash. *)
  let incarnate () =
    let mine = !gen in
    let live () = Int.equal !gen mine in
    let set_timer ?kind ~delay k = ctx.set_timer ?kind ~delay (fun () -> if live () then k ()) in
    let ctx = { ctx with set_timer; emit = (fun ev -> if live () then ctx.emit ev) } in
    let service = { Recovery.machine = machine (); on_reply } in
    match config.kind with
    | Sc_protocol -> Sc (Sc.create ~ctx ~service ~config ~fault ?counterpart_fail_signal ())
    | Scr_protocol -> Scr (Scr.create ~ctx ~service ~config ~fault ?counterpart_fail_signal ())
    | Bft_protocol -> Bft (Bft.create ~ctx ~service ~config ~fault ())
    | Ct_protocol -> Ct (Ct.create ~ctx ~service ~config)
  in
  { incarnate; emit = ctx.Context.emit; gen; crashed = false; core = incarnate () }

let spawn ~config ~keyring ?(fault = fun _ -> Fault.Honest) ~machine
    ?(on_reply = fun _ _ _ -> ()) context =
  Array.init (Config.process_count config) (fun i ->
      create ~ctx:(context i) ~config ~keyring ~fault:(fault i) ~machine ~on_reply:(on_reply i))

let core t = t.core
let crashed t = t.crashed

let start t =
  match t.core with
  | Sc p -> Sc.start p
  | Scr p -> Scr.start p
  | Bft p -> Bft.start p
  | Ct p -> Ct.start p

let on_request t r =
  if not t.crashed then
    match t.core with
    | Sc p -> Sc.on_request p r
    | Scr p -> Scr.on_request p r
    | Bft p -> Bft.on_request p r
    | Ct p -> Ct.on_request p r

let on_message t ~src env =
  if not t.crashed then
    match t.core with
    | Sc p -> Sc.on_message p ~src env
    | Scr p -> Scr.on_message p ~src env
    | Bft p -> Bft.on_message p ~src env
    | Ct p -> Ct.on_message p ~src env

(* ----------------------------------------------------------------- kernel *)

let kernel t =
  match t.core with
  | Sc p -> Sc.kernel p
  | Scr p -> Scr.kernel p
  | Bft p -> Bft.kernel p
  | Ct p -> Ct.kernel p

let log_length t = match kernel t with Recovery.Kernel h -> Hashtbl.length h.log.orders
let stable_checkpoint_seq t = match kernel t with Recovery.Kernel h -> Recovery.stable_seq h.log.rcv
let client_marks t = match kernel t with Recovery.Kernel h -> Recovery.marks h.log.rcv
let delivered_seq t = match kernel t with Recovery.Kernel h -> h.log.delivered
let max_committed t = match kernel t with Recovery.Kernel h -> h.log.max_committed
let recover t = match kernel t with Recovery.Kernel h -> Recovery.recover h
let machine t = match kernel t with Recovery.Kernel h -> h.log.service.machine

(* -------------------------------------------------------- crash-restart *)

let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    incr t.gen
  end

let restart t =
  if t.crashed then begin
    t.crashed <- false;
    t.core <- t.incarnate ();
    t.emit Context.Node_restarted;
    start t;
    recover t
  end
