module Codec = Sof_util.Codec

type key = { client : int; client_seq : int }

type t = { key : key; op : string }

let make ~client ~client_seq ~op = { key = { client; client_seq }; op }

(* The length [encode] would produce, computed without encoding. *)
let encoded_size t =
  let n = String.length t.op in
  Codec.varint_size t.key.client + Codec.varint_size t.key.client_seq
  + Codec.varint_size n + n

let encode t =
  let w = Codec.Writer.create ~size:(encoded_size t) () in
  Codec.Writer.varint w t.key.client;
  Codec.Writer.varint w t.key.client_seq;
  Codec.Writer.string w t.op;
  Codec.Writer.contents w

let decode s =
  let r = Codec.Reader.of_string s in
  let client = Codec.Reader.varint r in
  let client_seq = Codec.Reader.varint r in
  let op = Codec.Reader.string r in
  Codec.Reader.expect_end r;
  { key = { client; client_seq }; op }

let digest alg t = Sof_crypto.Digest_alg.digest alg (encode t)

let compare_key a b =
  let c = Stdlib.compare a.client b.client in
  if c <> 0 then c else Stdlib.compare a.client_seq b.client_seq

let pp_key fmt k = Format.fprintf fmt "c%d#%d" k.client k.client_seq

let pp fmt t = Format.fprintf fmt "%a(%dB)" pp_key t.key (String.length t.op)

module Key_ord = struct
  type nonrec t = key

  let compare = compare_key
end

module Key_map = Map.Make (Key_ord)
module Key_set = Set.Make (Key_ord)

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal a b = Int.equal a.client b.client && Int.equal a.client_seq b.client_seq
  let hash k = (k.client * 0x9e3779b1) lxor k.client_seq
end)
