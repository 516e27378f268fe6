module Codec = Sof_util.Codec
module Request = Sof_smr.Request

type order_info = { o : int; digest : string; keys : Request.key list }

type body =
  | Order of { c : int; info : order_info }
  | Ack of { c : int; o : int; digest : string }
  | Fail_signal of { pair : int }
  | Back_log of {
      c : int;
      failed_pair : int;
      max_committed : int;
      committed_digest : string;
      proof_c : int;
      proof : (int * string) list;
      stable : Checkpoint.cert option;
          (* the sender's stable checkpoint certificate: durable proof of
             commitment through its sequence number, for a replica whose
             volatile ack proof did not survive a crash-restart *)
      uncommitted : order_info list;
    }
  | Start of { c : int; start_o : int; anchor : int; new_back_log : order_info list }
  | Start_ack of { c : int; start_digest : string }
  | Start_tuples of { c : int; tuples : (int * string) list }
  | View_change of {
      v : int;
      max_committed : int;
      committed_digest : string;
      uncommitted : order_info list;
    }
  | New_view of { v : int; start_o : int; anchor : int; new_back_log : order_info list }
  | Unwilling of { v : int; pair : int }
  | Heartbeat of { pair : int; beat : int }
  | Pre_prepare of { v : int; info : order_info }
  | Prepare of { v : int; o : int; digest : string }
  | Commit of { v : int; o : int; digest : string }
  | Bft_view_change of { v : int; prepared : order_info list }
  | Bft_new_view of { v : int; pre_prepares : order_info list }
  | Checkpoint of { seq : int; digest : string }
  | State_request of { have : int }
  | State_response of {
      cert : Checkpoint.cert option;
      image : string;
      entries : Checkpoint.entry list;
    }
  | Probe of { nonce : int; at : int }
  | Probe_reply of { nonce : int; at : int }

type envelope = {
  sender : int;
  body : body;
  body_bytes : string;
  signature : string;
  endorsement : (int * string) option;
}

(* ---------------------------------------------------------------- codec *)

let write_key w (k : Request.key) =
  Codec.Writer.varint w k.Request.client;
  Codec.Writer.varint w k.Request.client_seq

let read_key r =
  let client = Codec.Reader.varint r in
  let client_seq = Codec.Reader.varint r in
  { Request.client; client_seq }

let write_order_info w info =
  Codec.Writer.varint w info.o;
  Codec.Writer.string w info.digest;
  Codec.Writer.list w write_key info.keys

let read_order_info r =
  let o = Codec.Reader.varint r in
  let digest = Codec.Reader.string r in
  let keys = Codec.Reader.list r read_key in
  { o; digest; keys }

let write_tuple w (signer, signature) =
  Codec.Writer.varint w signer;
  Codec.Writer.string w signature

let read_tuple r =
  let signer = Codec.Reader.varint r in
  let signature = Codec.Reader.string r in
  (signer, signature)

let encode_body body =
  let w = Codec.Writer.create () in
  (match body with
  | Order { c; info } ->
    Codec.Writer.u8 w 0;
    Codec.Writer.varint w c;
    write_order_info w info
  | Ack { c; o; digest } ->
    Codec.Writer.u8 w 1;
    Codec.Writer.varint w c;
    Codec.Writer.varint w o;
    Codec.Writer.string w digest
  | Fail_signal { pair } ->
    Codec.Writer.u8 w 2;
    Codec.Writer.varint w pair
  | Back_log
      { c; failed_pair; max_committed; committed_digest; proof_c; proof; stable; uncommitted }
    ->
    Codec.Writer.u8 w 3;
    Codec.Writer.varint w c;
    Codec.Writer.varint w failed_pair;
    Codec.Writer.varint w max_committed;
    Codec.Writer.string w committed_digest;
    Codec.Writer.varint w proof_c;
    Codec.Writer.list w write_tuple proof;
    Codec.Writer.option w Checkpoint.write_cert stable;
    Codec.Writer.list w write_order_info uncommitted
  | Start { c; start_o; anchor; new_back_log } ->
    Codec.Writer.u8 w 4;
    Codec.Writer.varint w c;
    Codec.Writer.varint w start_o;
    Codec.Writer.varint w anchor;
    Codec.Writer.list w write_order_info new_back_log
  | Start_ack { c; start_digest } ->
    Codec.Writer.u8 w 5;
    Codec.Writer.varint w c;
    Codec.Writer.string w start_digest
  | Start_tuples { c; tuples } ->
    Codec.Writer.u8 w 6;
    Codec.Writer.varint w c;
    Codec.Writer.list w write_tuple tuples
  | View_change { v; max_committed; committed_digest; uncommitted } ->
    Codec.Writer.u8 w 7;
    Codec.Writer.varint w v;
    Codec.Writer.varint w max_committed;
    Codec.Writer.string w committed_digest;
    Codec.Writer.list w write_order_info uncommitted
  | New_view { v; start_o; anchor; new_back_log } ->
    Codec.Writer.u8 w 8;
    Codec.Writer.varint w v;
    Codec.Writer.varint w start_o;
    Codec.Writer.varint w anchor;
    Codec.Writer.list w write_order_info new_back_log
  | Unwilling { v; pair } ->
    Codec.Writer.u8 w 9;
    Codec.Writer.varint w v;
    Codec.Writer.varint w pair
  | Heartbeat { pair; beat } ->
    Codec.Writer.u8 w 10;
    Codec.Writer.varint w pair;
    Codec.Writer.varint w beat
  | Pre_prepare { v; info } ->
    Codec.Writer.u8 w 11;
    Codec.Writer.varint w v;
    write_order_info w info
  | Prepare { v; o; digest } ->
    Codec.Writer.u8 w 12;
    Codec.Writer.varint w v;
    Codec.Writer.varint w o;
    Codec.Writer.string w digest
  | Commit { v; o; digest } ->
    Codec.Writer.u8 w 13;
    Codec.Writer.varint w v;
    Codec.Writer.varint w o;
    Codec.Writer.string w digest
  | Bft_view_change { v; prepared } ->
    Codec.Writer.u8 w 14;
    Codec.Writer.varint w v;
    Codec.Writer.list w write_order_info prepared
  | Bft_new_view { v; pre_prepares } ->
    Codec.Writer.u8 w 15;
    Codec.Writer.varint w v;
    Codec.Writer.list w write_order_info pre_prepares
  | Checkpoint { seq; digest } ->
    Codec.Writer.u8 w 16;
    Codec.Writer.varint w seq;
    Codec.Writer.string w digest
  | State_request { have } ->
    Codec.Writer.u8 w 17;
    Codec.Writer.varint w have
  | State_response { cert; image; entries } ->
    Codec.Writer.u8 w 18;
    Codec.Writer.option w Checkpoint.write_cert cert;
    Codec.Writer.string w image;
    Codec.Writer.list w Checkpoint.write_entry entries
  | Probe { nonce; at } ->
    Codec.Writer.u8 w 19;
    Codec.Writer.varint w nonce;
    Codec.Writer.varint w at
  | Probe_reply { nonce; at } ->
    Codec.Writer.u8 w 20;
    Codec.Writer.varint w nonce;
    Codec.Writer.varint w at);
  Codec.Writer.contents w

let decode_body s =
  let r = Codec.Reader.of_string s in
  let body =
    match Codec.Reader.u8 r with
    | 0 ->
      let c = Codec.Reader.varint r in
      Order { c; info = read_order_info r }
    | 1 ->
      let c = Codec.Reader.varint r in
      let o = Codec.Reader.varint r in
      Ack { c; o; digest = Codec.Reader.string r }
    | 2 -> Fail_signal { pair = Codec.Reader.varint r }
    | 3 ->
      let c = Codec.Reader.varint r in
      let failed_pair = Codec.Reader.varint r in
      let max_committed = Codec.Reader.varint r in
      let committed_digest = Codec.Reader.string r in
      let proof_c = Codec.Reader.varint r in
      let proof = Codec.Reader.list r read_tuple in
      let stable = Codec.Reader.option r Checkpoint.read_cert in
      let uncommitted = Codec.Reader.list r read_order_info in
      Back_log
        { c; failed_pair; max_committed; committed_digest; proof_c; proof; stable; uncommitted }
    | 4 ->
      let c = Codec.Reader.varint r in
      let start_o = Codec.Reader.varint r in
      let anchor = Codec.Reader.varint r in
      Start { c; start_o; anchor; new_back_log = Codec.Reader.list r read_order_info }
    | 5 ->
      let c = Codec.Reader.varint r in
      Start_ack { c; start_digest = Codec.Reader.string r }
    | 6 ->
      let c = Codec.Reader.varint r in
      Start_tuples { c; tuples = Codec.Reader.list r read_tuple }
    | 7 ->
      let v = Codec.Reader.varint r in
      let max_committed = Codec.Reader.varint r in
      let committed_digest = Codec.Reader.string r in
      View_change
        { v; max_committed; committed_digest; uncommitted = Codec.Reader.list r read_order_info }
    | 8 ->
      let v = Codec.Reader.varint r in
      let start_o = Codec.Reader.varint r in
      let anchor = Codec.Reader.varint r in
      New_view { v; start_o; anchor; new_back_log = Codec.Reader.list r read_order_info }
    | 9 ->
      let v = Codec.Reader.varint r in
      Unwilling { v; pair = Codec.Reader.varint r }
    | 10 ->
      let pair = Codec.Reader.varint r in
      Heartbeat { pair; beat = Codec.Reader.varint r }
    | 11 ->
      let v = Codec.Reader.varint r in
      Pre_prepare { v; info = read_order_info r }
    | 12 ->
      let v = Codec.Reader.varint r in
      let o = Codec.Reader.varint r in
      Prepare { v; o; digest = Codec.Reader.string r }
    | 13 ->
      let v = Codec.Reader.varint r in
      let o = Codec.Reader.varint r in
      Commit { v; o; digest = Codec.Reader.string r }
    | 14 ->
      let v = Codec.Reader.varint r in
      Bft_view_change { v; prepared = Codec.Reader.list r read_order_info }
    | 15 ->
      let v = Codec.Reader.varint r in
      Bft_new_view { v; pre_prepares = Codec.Reader.list r read_order_info }
    | 16 ->
      let seq = Codec.Reader.varint r in
      Checkpoint { seq; digest = Codec.Reader.string r }
    | 17 -> State_request { have = Codec.Reader.varint r }
    | 18 ->
      let cert = Codec.Reader.option r Checkpoint.read_cert in
      let image = Codec.Reader.string r in
      let entries = Codec.Reader.list r Checkpoint.read_entry in
      State_response { cert; image; entries }
    | 19 ->
      let nonce = Codec.Reader.varint r in
      Probe { nonce; at = Codec.Reader.varint r }
    | 20 ->
      let nonce = Codec.Reader.varint r in
      Probe_reply { nonce; at = Codec.Reader.varint r }
    | _ -> raise Codec.Reader.Truncated
  in
  Codec.Reader.expect_end r;
  body

(* ----------------------------------------------------------- envelopes *)

(* Every constructor sets [body_bytes] to [encode_body body], so signing,
   verification, digests and [encode] all reuse one encoding. *)
let sign ~sender ~sign body =
  let body_bytes = encode_body body in
  { sender; body; body_bytes; signature = sign body_bytes; endorsement = None }

let endorsement_payload body first_sig = encode_body body ^ first_sig

(* What an endorser signs: the body bytes and the first signature. *)
let endorsed_bytes env = env.body_bytes ^ env.signature

let endorse ~endorser ~sign env =
  { env with endorsement = Some (endorser, sign (endorsed_bytes env)) }

let forge ~sender ~signature ?endorsement body =
  { sender; body; body_bytes = encode_body body; signature; endorsement }

let verify ~verify env =
  verify ~signer:env.sender ~msg:env.body_bytes ~signature:env.signature
  && begin
       match env.endorsement with
       | None -> true
       | Some (who, s) ->
         (not (Int.equal who env.sender))
         && verify ~signer:who ~msg:(endorsed_bytes env) ~signature:s
     end

let encode env =
  let n = String.length env.body_bytes in
  let s = String.length env.signature in
  let size =
    Codec.varint_size env.sender + Codec.varint_size n + n + Codec.varint_size s + s
    +
    match env.endorsement with
    | None -> 1
    | Some (who, e) ->
      let m = String.length e in
      1 + Codec.varint_size who + Codec.varint_size m + m
  in
  let w = Codec.Writer.create ~size () in
  Codec.Writer.varint w env.sender;
  Codec.Writer.string w env.body_bytes;
  Codec.Writer.string w env.signature;
  Codec.Writer.option w write_tuple env.endorsement;
  Codec.Writer.contents w

(* The body is decoded from exactly the bytes it arrived as, and those bytes
   stay in [body_bytes].  The strict codec guarantees they are what
   [encode_body] gives for the decoded body, so signatures checked over
   them mean the same as signatures over a re-encoding. *)
let decode s =
  let r = Codec.Reader.of_string s in
  let sender = Codec.Reader.varint r in
  let body_bytes = Codec.Reader.string r in
  let body = decode_body body_bytes in
  let signature = Codec.Reader.string r in
  let endorsement = Codec.Reader.option r read_tuple in
  Codec.Reader.expect_end r;
  { sender; body; body_bytes; signature; endorsement }

let signature_count env = match env.endorsement with None -> 1 | Some _ -> 2

(* ------------------------------------------------------------- equality *)

let equal_endorsement (i, s) (j, u) = Int.equal i j && String.equal s u

let equal a b =
  Int.equal a.sender b.sender
  && String.equal a.signature b.signature
  && Option.equal equal_endorsement a.endorsement b.endorsement
  && String.equal a.body_bytes b.body_bytes

let body_tag = function
  | Order _ -> "order"
  | Ack _ -> "ack"
  | Fail_signal _ -> "fail_signal"
  | Back_log _ -> "back_log"
  | Start _ -> "start"
  | Start_ack _ -> "start_ack"
  | Start_tuples _ -> "start_tuples"
  | View_change _ -> "view_change"
  | New_view _ -> "new_view"
  | Unwilling _ -> "unwilling"
  | Heartbeat _ -> "heartbeat"
  | Pre_prepare _ -> "pre_prepare"
  | Prepare _ -> "prepare"
  | Commit _ -> "commit"
  | Bft_view_change _ -> "bft_view_change"
  | Bft_new_view _ -> "bft_new_view"
  | Checkpoint _ -> "checkpoint"
  | State_request _ -> "state_request"
  | State_response _ -> "state_response"
  | Probe _ -> "probe"
  | Probe_reply _ -> "probe_reply"

(* Bodies whose signatures serve as evidence shown to third parties — a
   double-signed order or fail-signal is forwarded as proof of what a
   coordinator said, and checkpoint certificates travel in state transfer.
   These must stay transferable (asymmetric) even when the quorum phases
   run on MAC authenticator vectors. *)
let accountable_body = function
  | Order _ | Fail_signal _ | Checkpoint _ -> true
  | Ack _ | Back_log _ | Start _ | Start_ack _ | Start_tuples _
  | View_change _ | New_view _ | Unwilling _ | Heartbeat _ | Pre_prepare _
  | Prepare _ | Commit _ | Bft_view_change _ | Bft_new_view _
  | State_request _ | State_response _ | Probe _ | Probe_reply _ ->
    false

let pp fmt env =
  Format.fprintf fmt "%s from %d%s" (body_tag env.body) env.sender
    (match env.endorsement with
    | None -> ""
    | Some (who, _) -> Printf.sprintf " endorsed by %d" who)
