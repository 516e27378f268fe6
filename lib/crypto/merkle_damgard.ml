(* The block feeder MD5, SHA-1 and SHA-256 share: 64-byte blocks, 0x80
   padding, a 64-bit bit-length trailer, 32-bit chaining words kept in
   native ints masked to 32 bits. *)

let block_size = 64

type t = {
  iv : int array;
  big_endian : bool;
  compress : int array -> int array -> Bytes.t -> int -> unit;
}

type ctx = {
  md : t;
  h : int array;
  w : int array;
  block : Bytes.t;
  mutable fill : int;
  mutable len : int;
}

type chain = { words : int array; bytes : int }

let init md =
  {
    md;
    h = Array.copy md.iv;
    w = Array.make 16 0;
    block = Bytes.create block_size;
    fill = 0;
    len = 0;
  }

let compress ctx src off = ctx.md.compress ctx.h ctx.w src off

let feed_sub ctx s off n =
  if off < 0 || n < 0 || off > String.length s - n then invalid_arg "Merkle_damgard.feed_sub";
  let src = Bytes.unsafe_of_string s in
  let stop = off + n in
  ctx.len <- ctx.len + n;
  let pos = ref off in
  if ctx.fill > 0 then begin
    let take = min (block_size - ctx.fill) n in
    Bytes.blit src off ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := off + take;
    if Int.equal ctx.fill block_size then begin
      compress ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  (* Whole blocks are compressed straight from the input. *)
  while stop - !pos >= block_size do
    compress ctx src !pos;
    pos := !pos + block_size
  done;
  if !pos < stop then begin
    Bytes.blit src !pos ctx.block 0 (stop - !pos);
    ctx.fill <- stop - !pos
  end

let feed ctx s = feed_sub ctx s 0 (String.length s)

let finalize ctx =
  let b = ctx.block and fill = ctx.fill in
  Bytes.set b fill '\x80';
  if fill >= 56 then begin
    Bytes.fill b (fill + 1) (block_size - fill - 1) '\000';
    compress ctx b 0;
    Bytes.fill b 0 56 '\000'
  end
  else Bytes.fill b (fill + 1) (55 - fill) '\000';
  let bits = Int64.of_int (8 * ctx.len) in
  if ctx.md.big_endian then Bytes.set_int64_be b 56 bits
  else Bytes.set_int64_le b 56 bits;
  compress ctx b 0;
  let out = Bytes.create (4 * Array.length ctx.h) in
  for i = 0 to Array.length ctx.h - 1 do
    let v = Int32.of_int ctx.h.(i) in
    if ctx.md.big_endian then Bytes.set_int32_be out (4 * i) v
    else Bytes.set_int32_le out (4 * i) v
  done;
  Bytes.unsafe_to_string out

let digest md msg =
  let ctx = init md in
  feed ctx msg;
  finalize ctx

let chain ctx =
  if ctx.fill <> 0 then invalid_arg "Merkle_damgard.chain: not at a block boundary";
  { words = Array.copy ctx.h; bytes = ctx.len }

let resume ctx c =
  Array.blit c.words 0 ctx.h 0 (Array.length ctx.h);
  ctx.fill <- 0;
  ctx.len <- c.bytes
