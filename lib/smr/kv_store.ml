module Codec = Sof_util.Codec

type op =
  | Get of string
  | Put of string * string
  | Delete of string
  | Cas of { key : string; expected : string; replacement : string }

type reply = Value of string | Not_found | Ok | Cas_failed

let encode_op op =
  let w = Codec.Writer.create () in
  (match op with
  | Get k ->
    Codec.Writer.u8 w 0;
    Codec.Writer.string w k
  | Put (k, v) ->
    Codec.Writer.u8 w 1;
    Codec.Writer.string w k;
    Codec.Writer.string w v
  | Delete k ->
    Codec.Writer.u8 w 2;
    Codec.Writer.string w k
  | Cas { key; expected; replacement } ->
    Codec.Writer.u8 w 3;
    Codec.Writer.string w key;
    Codec.Writer.string w expected;
    Codec.Writer.string w replacement);
  Codec.Writer.contents w

let decode_op s =
  let r = Codec.Reader.of_string s in
  let op =
    match Codec.Reader.u8 r with
    | 0 -> Get (Codec.Reader.string r)
    | 1 ->
      let k = Codec.Reader.string r in
      Put (k, Codec.Reader.string r)
    | 2 -> Delete (Codec.Reader.string r)
    | 3 ->
      let key = Codec.Reader.string r in
      let expected = Codec.Reader.string r in
      let replacement = Codec.Reader.string r in
      Cas { key; expected; replacement }
    | _ -> raise Codec.Reader.Truncated
  in
  Codec.Reader.expect_end r;
  op

let encode_reply reply =
  let w = Codec.Writer.create () in
  (match reply with
  | Value v ->
    Codec.Writer.u8 w 0;
    Codec.Writer.string w v
  | Not_found -> Codec.Writer.u8 w 1
  | Ok -> Codec.Writer.u8 w 2
  | Cas_failed -> Codec.Writer.u8 w 3);
  Codec.Writer.contents w

let decode_reply s =
  let r = Codec.Reader.of_string s in
  let reply =
    match Codec.Reader.u8 r with
    | 0 -> Value (Codec.Reader.string r)
    | 1 -> Not_found
    | 2 -> Ok
    | 3 -> Cas_failed
    | _ -> raise Codec.Reader.Truncated
  in
  Codec.Reader.expect_end r;
  reply

module Store = Map.Make (String)

let apply store op_bytes =
  match decode_op op_bytes with
  | exception Codec.Reader.Truncated -> (store, encode_reply Cas_failed)
  | Get k -> begin
    match Store.find_opt k store with
    | Some v -> (store, encode_reply (Value v))
    | None -> (store, encode_reply Not_found)
  end
  | Put (k, v) -> (Store.add k v store, encode_reply Ok)
  | Delete k -> (Store.remove k store, encode_reply Ok)
  | Cas { key; expected; replacement } -> begin
    match Store.find_opt key store with
    | Some v when v = expected -> (Store.add key replacement store, encode_reply Ok)
    | Some _ | None -> (store, encode_reply Cas_failed)
  end

let digest_of store =
  let ctx = Sof_crypto.(Merkle_damgard.init Sha256.md) in
  Store.iter
    (fun k v ->
      Sof_crypto.Merkle_damgard.feed ctx k;
      Sof_crypto.Merkle_damgard.feed ctx "\x00";
      Sof_crypto.Merkle_damgard.feed ctx v;
      Sof_crypto.Merkle_damgard.feed ctx "\x01")
    store;
  Sof_crypto.Merkle_damgard.finalize ctx

(* Most stores a model checker fingerprints are still empty. *)
let empty_digest = digest_of Store.empty

let digest store = if Store.is_empty store then empty_digest else digest_of store

let snapshot store =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w (Store.cardinal store);
  Store.iter
    (fun k v ->
      Codec.Writer.string w k;
      Codec.Writer.string w v)
    store;
  Codec.Writer.contents w

let restore image =
  match
    let r = Codec.Reader.of_string image in
    let n = Codec.Reader.varint r in
    let rec go store i =
      if i >= n then store
      else begin
        let k = Codec.Reader.string r in
        let v = Codec.Reader.string r in
        go (Store.add k v store) (i + 1)
      end
    in
    let store = go Store.empty 0 in
    Codec.Reader.expect_end r;
    store
  with
  | store -> Some store
  | exception Codec.Reader.Truncated -> None

let machine () =
  State_machine.create ~name:"kv" ~init:Store.empty ~apply ~digest ~snapshot ~restore ()

let pp_op fmt = function
  | Get k -> Format.fprintf fmt "get(%s)" k
  | Put (k, _) -> Format.fprintf fmt "put(%s)" k
  | Delete k -> Format.fprintf fmt "delete(%s)" k
  | Cas { key; _ } -> Format.fprintf fmt "cas(%s)" key

let pp_reply fmt = function
  | Value v -> Format.fprintf fmt "value(%s)" v
  | Not_found -> Format.pp_print_string fmt "not_found"
  | Ok -> Format.pp_print_string fmt "ok"
  | Cas_failed -> Format.pp_print_string fmt "cas_failed"
