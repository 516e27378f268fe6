module Scheme = Sof_crypto.Scheme
module Keyring = Sof_crypto.Keyring
module Codec = Sof_util.Codec
module Wal = Sof_storage.Wal

type kind = Sc_protocol | Scr_protocol | Bft_protocol | Ct_protocol

let process_count kind ~f =
  match kind with
  | Sc_protocol | Bft_protocol -> (3 * f) + 1
  | Scr_protocol -> (3 * f) + 2
  | Ct_protocol -> (2 * f) + 1

let kinds = [ Sc_protocol; Scr_protocol; Bft_protocol; Ct_protocol ]

let name = function
  | Sc_protocol -> "sc"
  | Scr_protocol -> "scr"
  | Bft_protocol -> "bft"
  | Ct_protocol -> "ct"

(* Config's layout, arithmetically: replicas 0..2f, shadows from 2f+1,
   pair r (1-based) = (primary r-1, shadow 2f+r). *)
let pair_count kind ~f =
  match kind with
  | Sc_protocol -> f
  | Scr_protocol -> f + 1
  | Bft_protocol | Ct_protocol -> 0

let pair_rank kind ~f p =
  let pairs = pair_count kind ~f in
  if p < pairs then Some (p + 1)
  else if p > 2 * f && p <= (2 * f) + pairs then Some (p - (2 * f))
  else None

let counterpart kind ~f p =
  let pairs = pair_count kind ~f in
  if p < pairs then Some ((2 * f) + p + 1)
  else if p > 2 * f && p <= (2 * f) + pairs then Some (p - (2 * f) - 1)
  else None

let scheme kind s = match kind with Ct_protocol -> Scheme.null | _ -> s

type config =
  | Pair_config of Config.t  (* SC or SCR, told apart by [variant] *)
  | Bft_config of Bft.config
  | Ct_config of Ct.config

let make_config ~kind ?batching_interval ?batch_size_limit ?digest
    ?pair_delay_estimate ?heartbeat_interval ?dumb_optimization
    ?checkpoint_interval ?timing ?unsafe_digest_blind_votes ~f () =
  match kind with
  | Sc_protocol | Scr_protocol ->
    let variant =
      match kind with Scr_protocol -> Config.SCR | _ -> Config.SC
    in
    Pair_config
      (Config.make ~variant ?batching_interval ?batch_size_limit ?digest
         ?pair_delay_estimate ?heartbeat_interval ?dumb_optimization
         ?checkpoint_interval ?timing ~f ())
  | Bft_protocol ->
    Bft_config
      (Bft.make_config ?batching_interval ?batch_size_limit ?digest
         ?checkpoint_interval ?unsafe_digest_blind_votes ?timing ~f ())
  | Ct_protocol ->
    Ct_config
      (Ct.make_config ?batching_interval ?batch_size_limit ?checkpoint_interval
         ?timing ~f ())

let pairs = function
  | Pair_config c ->
    List.init (Config.pair_count c) (fun r ->
        (Config.primary_of_pair c (r + 1), Config.shadow_of_pair c (r + 1)))
  | Bft_config _ | Ct_config _ -> []

let wal_digest = function
  | Pair_config c -> c.Config.digest
  | Bft_config c -> c.Bft.digest
  | Ct_config c -> c.Ct.digest

type t = Sc of Sc.t | Scr of Scr.t | Bft of Bft.t | Ct of Ct.t

(* The trusted dealer supplies each pair member with a fail-signal signed
   by its counterpart (Section 3.2). *)
let counterpart_fail_signal keyring config i =
  match (Config.pair_rank_of config i, Config.counterpart config i) with
  | Some rank, Some counterpart ->
    let body = Message.encode_body (Message.Fail_signal { pair = rank }) in
    Some (Keyring.sign keyring ~signer:counterpart body)
  | _ -> None

let create ~ctx ~config ~keyring ?fault () =
  match config with
  | Pair_config c -> begin
    let counterpart_fail_signal =
      counterpart_fail_signal keyring c ctx.Context.id
    in
    match c.Config.variant with
    | Config.SC -> Sc (Sc.create ~ctx ~config:c ?fault ?counterpart_fail_signal ())
    | Config.SCR -> Scr (Scr.create ~ctx ~config:c ?fault ?counterpart_fail_signal ())
  end
  | Bft_config c -> Bft (Bft.create ~ctx ~config:c ?fault ())
  | Ct_config c -> Ct (Ct.create ~ctx ~config:c)

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

let request_recovery = function
  | Sc p -> Sc.request_recovery p
  | Scr p -> Scr.request_recovery p
  | Bft p -> Bft.request_recovery p
  | Ct p -> Ct.request_recovery p

let recover_local t ~cert ~image ~entries =
  match t with
  | Sc p -> Sc.recover_local p ~cert ~image ~entries
  | Scr p -> Scr.recover_local p ~cert ~image ~entries
  | Bft p -> Bft.recover_local p ~cert ~image ~entries
  | Ct p -> Ct.recover_local p ~cert ~image ~entries

let latest_stable = function
  | Sc p -> Sc.latest_stable p
  | Scr p -> Scr.latest_stable p
  | Bft p -> Bft.latest_stable p
  | Ct p -> Ct.latest_stable p

let log_length = function
  | Sc p -> Sc.log_length p
  | Scr p -> Scr.log_length p
  | Bft p -> Bft.log_length p
  | Ct p -> Ct.log_length p

let stable_checkpoint_seq = function
  | Sc p -> Sc.stable_checkpoint_seq p
  | Scr p -> Scr.stable_checkpoint_seq p
  | Bft p -> Bft.stable_checkpoint_seq p
  | Ct p -> Ct.stable_checkpoint_seq p

let delivered_seq = function
  | Sc p -> Sc.delivered_seq p
  | Scr p -> Scr.delivered_seq p
  | Bft p -> Bft.delivered_seq p
  | Ct p -> Ct.delivered_seq p

let client_marks = function
  | Sc p -> Sc.client_marks p
  | Scr p -> Scr.client_marks p
  | Bft p -> Bft.client_marks p
  | Ct p -> Ct.client_marks p

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
      e_digest = Batch.digest (wal_digest config) (Batch.make requests);
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
