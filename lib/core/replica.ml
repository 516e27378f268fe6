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

type t = Sc of Sc.t | Scr of Scr.t | Bft of Bft.t | Ct of Ct.t

(* The trusted dealer supplies each pair member with a fail-signal signed
   by its counterpart (Section 3.2). *)
let counterpart_fail_signal keyring config i =
  match (Config.pair_rank_of config i, Config.counterpart config i) with
  | Some rank, Some counterpart ->
    let body = Message.encode_body (Message.Fail_signal { pair = rank }) in
    Some (Keyring.sign keyring ~signer:counterpart body)
  | _ -> None

let create ~ctx ~(config : Config.t) ~keyring ?fault () =
  let counterpart_fail_signal = counterpart_fail_signal keyring config ctx.Context.id in
  match config.kind with
  | Sc_protocol -> Sc (Sc.create ~ctx ~config ?fault ?counterpart_fail_signal ())
  | Scr_protocol -> Scr (Scr.create ~ctx ~config ?fault ?counterpart_fail_signal ())
  | Bft_protocol -> Bft (Bft.create ~ctx ~config ?fault ())
  | Ct_protocol -> Ct (Ct.create ~ctx ~config)

let start = function
  | Sc p -> Sc.start p
  | Scr p -> Scr.start p
  | Bft p -> Bft.start p
  | Ct p -> Ct.start p

let on_request t r =
  match t with
  | Sc p -> Sc.on_request p r
  | Scr p -> Scr.on_request p r
  | Bft p -> Bft.on_request p r
  | Ct p -> Ct.on_request p r

let on_message t ~src env =
  match t with
  | Sc p -> Sc.on_message p ~src env
  | Scr p -> Scr.on_message p ~src env
  | Bft p -> Bft.on_message p ~src env
  | Ct p -> Ct.on_message p ~src env

(* ----------------------------------------------------------------- kernel *)

let kernel = function
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
