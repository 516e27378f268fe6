module Md = Merkle_damgard

type keyed = { alg : Digest_alg.t; inner : Md.chain; outer : Md.chain }

(* The chaining words after one block of [key xor pad]. *)
let pad_chain alg key pad =
  let block = Bytes.make Md.block_size (Char.chr pad) in
  String.iteri (fun i c -> Bytes.set block i (Char.chr (Char.code c lxor pad))) key;
  let ctx = Md.init (Digest_alg.md alg) in
  Md.feed ctx (Bytes.unsafe_to_string block);
  Md.chain ctx

let keyed ~alg key =
  let key = if String.length key > Md.block_size then Digest_alg.digest alg key else key in
  { alg; inner = pad_chain alg key 0x36; outer = pad_chain alg key 0x5c }

let tag k msg =
  let ctx = Md.init (Digest_alg.md k.alg) in
  Md.resume ctx k.inner;
  Md.feed ctx msg;
  let inner = Md.finalize ctx in
  Md.resume ctx k.outer;
  Md.feed ctx inner;
  Md.finalize ctx

let check k ~msg ~tag:t ~pos =
  let expect = tag k msg in
  let n = String.length expect in
  pos >= 0
  && pos + n <= String.length t
  && begin
       let acc = ref 0 in
       for i = 0 to n - 1 do
         acc := !acc lor (Char.code expect.[i] lxor Char.code t.[pos + i])
       done;
       !acc = 0
     end

let mac ~alg ~key msg = tag (keyed ~alg key) msg

let verify ~alg ~key ~msg ~tag =
  Int.equal (String.length tag) (Digest_alg.size alg)
  && check (keyed ~alg key) ~msg ~tag ~pos:0
