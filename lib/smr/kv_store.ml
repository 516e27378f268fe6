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

(* [map] is the store as of the last [settle]; [writes] holds every write
   since, [None] for a delete.  A put then costs a table write, not a copied
   path of the map. *)
type store = { mutable map : string Store.t; writes : (string, string option) Hashtbl.t }

(* The fewest buckets [Hashtbl] allows: the model checker builds n fresh
   machines per replayed world, and most of them see few writes. *)
let fresh map = { map; writes = Hashtbl.create 1 }

let settle s =
  if Hashtbl.length s.writes > 0 then begin
    s.map <-
      Hashtbl.fold
        (fun k w map -> match w with Some v -> Store.add k v map | None -> Store.remove k map)
        s.writes s.map;
    Hashtbl.clear s.writes
  end

let find s k =
  match Hashtbl.find_opt s.writes k with Some w -> w | None -> Store.find_opt k s.map

let ok_reply = encode_reply Ok
let not_found_reply = encode_reply Not_found
let cas_failed_reply = encode_reply Cas_failed

let apply s op_bytes =
  match decode_op op_bytes with
  | exception Codec.Reader.Truncated -> (s, cas_failed_reply)
  | Get k -> begin
    match find s k with
    | Some v -> (s, encode_reply (Value v))
    | None -> (s, not_found_reply)
  end
  | Put (k, v) ->
    Hashtbl.replace s.writes k (Some v);
    (s, ok_reply)
  | Delete k ->
    Hashtbl.replace s.writes k None;
    (s, ok_reply)
  | Cas { key; expected; replacement } -> begin
    match find s key with
    | Some v when String.equal v expected ->
      Hashtbl.replace s.writes key (Some replacement);
      (s, ok_reply)
    | Some _ | None -> (s, cas_failed_reply)
  end

let digest_of map =
  let ctx = Sof_crypto.(Merkle_damgard.init Sha256.md) in
  Store.iter
    (fun k v ->
      Sof_crypto.Merkle_damgard.feed ctx k;
      Sof_crypto.Merkle_damgard.feed ctx "\x00";
      Sof_crypto.Merkle_damgard.feed ctx v;
      Sof_crypto.Merkle_damgard.feed ctx "\x01")
    map;
  Sof_crypto.Merkle_damgard.finalize ctx

(* Most stores a model checker fingerprints are still empty. *)
let empty_digest = digest_of Store.empty

let digest s =
  settle s;
  if Store.is_empty s.map then empty_digest else digest_of s.map

(* A snapshot is sized first and filled once: the image of a checkpoint
   boundary is tens of KB, and a growing buffer would copy it several
   times over and once more into the result. *)
let string_size s = Codec.varint_size (String.length s) + String.length s
let entry_size k v size = size + string_size k + string_size v

let snapshot s =
  settle s;
  let n = Store.cardinal s.map in
  let b = Bytes.create (Store.fold entry_size s.map (Codec.varint_size n)) in
  let put k v pos = Codec.put_string b (Codec.put_string b pos k) v in
  ignore (Store.fold put s.map (Codec.put_varint b 0 n) : int);
  Bytes.unsafe_to_string b

let restore image =
  match
    let r = Codec.Reader.of_string image in
    let n = Codec.Reader.varint r in
    let rec go map i =
      if i >= n then map
      else begin
        let k = Codec.Reader.string r in
        let v = Codec.Reader.string r in
        go (Store.add k v map) (i + 1)
      end
    in
    let map = go Store.empty 0 in
    Codec.Reader.expect_end r;
    map
  with
  | map -> Some (fresh map)
  | exception Codec.Reader.Truncated -> None

let machine () =
  State_machine.create ~name:"kv" ~init:(fresh Store.empty) ~apply ~digest ~snapshot ~restore ()

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
