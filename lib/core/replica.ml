module Scheme = Sof_crypto.Scheme
module Keyring = Sof_crypto.Keyring
module Codec = Sof_util.Codec
module Wal = Sof_storage.Wal

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
let latest_stable t = match kernel t with Recovery.Kernel h -> Recovery.latest_stable h.log.rcv
let client_marks t = match kernel t with Recovery.Kernel h -> Recovery.marks h.log.rcv
let delivered_seq t = match kernel t with Recovery.Kernel h -> h.log.delivered
let max_committed t = match kernel t with Recovery.Kernel h -> h.log.max_committed
let request_recovery t = match kernel t with Recovery.Kernel h -> Recovery.request_recovery h

let recover_local t ~cert ~image ~entries =
  match kernel t with Recovery.Kernel h -> Recovery.recover_local h ~cert ~image ~entries

(* ------------------------------------------------------------ durable log *)

let encode_checkpoint_payload cert image =
  let w = Codec.Writer.create () in
  Checkpoint.write_cert w cert;
  Codec.Writer.string w image;
  Codec.Writer.contents w

let decode_checkpoint_payload s =
  match
    let r = Codec.Reader.of_string s in
    let cert = Checkpoint.read_cert r in
    let image = Codec.Reader.string r in
    Codec.Reader.expect_end r;
    (cert, image)
  with
  | v -> Some v
  | exception Codec.Reader.Truncated -> None

let encode_entry_payload e =
  let w = Codec.Writer.create () in
  Checkpoint.write_entry w e;
  Codec.Writer.contents w

let decode_entry_payload s =
  match
    let r = Codec.Reader.of_string s in
    let e = Checkpoint.read_entry r in
    Codec.Reader.expect_end r;
    e
  with
  | e -> Some e
  | exception Codec.Reader.Truncated -> None

(* Commit implies sync: the entry is durable before the service acts on the
   batch, so every reply is backed by a frame the replica can replay. *)
let log_delivery config wal ~seq (batch : Batch.t) =
  let requests = batch.Batch.requests in
  let entry =
    {
      Checkpoint.e_o = seq;
      e_digest = Batch.digest config.Config.digest (Batch.make requests);
      e_requests = requests;
    }
  in
  let payload = encode_entry_payload entry in
  Wal.append wal payload;
  Wal.sync wal;
  String.length payload

let persist_checkpoint t wal =
  match latest_stable t with
  | Some (cert, image) ->
    let payload = encode_checkpoint_payload cert image in
    Wal.write_checkpoint wal payload;
    Some (String.length payload)
  | None -> None

type replayed = {
  cert : Checkpoint.cert option;
  image : string;
  entries : Checkpoint.entry list;
  damaged : bool;
  bytes : int;
}

let read_log wal =
  let rp = Wal.replay wal in
  let cert_image = Option.bind rp.Wal.rp_checkpoint decode_checkpoint_payload in
  let entries = List.filter_map decode_entry_payload rp.Wal.rp_entries in
  let undecoded =
    (match (rp.Wal.rp_checkpoint, cert_image) with
    | Some _, None -> true
    | _ -> false)
    || List.compare_length_with entries (List.length rp.Wal.rp_entries) < 0
  in
  (match (rp.Wal.rp_checkpoint, cert_image) with
  | Some payload, Some _ -> Wal.write_checkpoint wal payload
  | _ -> Wal.reset wal);
  let cert, image =
    match cert_image with Some (c, img) -> (Some c, img) | None -> (None, "")
  in
  {
    cert;
    image;
    entries;
    damaged = rp.Wal.rp_damaged || undecoded;
    bytes =
      String.length (Option.value rp.Wal.rp_checkpoint ~default:"")
      + List.fold_left (fun a s -> a + String.length s) 0 rp.Wal.rp_entries;
  }

let recover_from_log t log =
  let advanced =
    recover_local t ~cert:log.cert ~image:log.image ~entries:log.entries
  in
  advanced && not log.damaged
