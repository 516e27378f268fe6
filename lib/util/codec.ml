(* Bytes an unsigned LEB128 varint of [v] occupies. *)
let rec varint_size v = if v < 0x80 then 1 else 1 + varint_size (v lsr 7)

(* The varint loops are top-level and take the buffer as an argument, so a
   call allocates no closure. *)
let rec emit_varint b v =
  if v < 0x80 then Buffer.add_char b (Char.chr v)
  else begin
    Buffer.add_char b (Char.chr (0x80 lor (v land 0x7f)));
    emit_varint b (v lsr 7)
  end

let rec set_varint b pos v =
  if v < 0x80 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    set_varint b (pos + 1) (v lsr 7)
  end

let put_varint b pos v =
  if v < 0 then invalid_arg "Codec.put_varint: negative";
  if pos < 0 || pos > Bytes.length b - varint_size v then invalid_arg "Codec.put_varint: no room";
  set_varint b pos v

let put_string b pos s =
  let pos = put_varint b pos (String.length s) in
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

module Writer = struct
  type t = Buffer.t

  let create ?(size = 64) () = Buffer.create size

  let u8 t v =
    if v < 0 || v > 0xff then invalid_arg "Codec.Writer.u8: out of range";
    Buffer.add_char t (Char.chr v)

  let u16 t v =
    if v < 0 || v > 0xffff then invalid_arg "Codec.Writer.u16: out of range";
    Buffer.add_char t (Char.chr (v land 0xff));
    Buffer.add_char t (Char.chr ((v lsr 8) land 0xff))

  let u32 t v =
    if v < 0 || v > 0xffffffff then invalid_arg "Codec.Writer.u32: out of range";
    Buffer.add_char t (Char.chr (v land 0xff));
    Buffer.add_char t (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char t (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char t (Char.chr ((v lsr 24) land 0xff))

  let varint t v =
    if v < 0 then invalid_arg "Codec.Writer.varint: negative";
    emit_varint t v

  let bool t v = u8 t (if v then 1 else 0)

  let string t s =
    varint t (String.length s);
    Buffer.add_string t s

  let raw t s = Buffer.add_string t s

  let rec elements t f = function
    | [] -> ()
    | x :: rest ->
      f t x;
      elements t f rest

  let list t f xs =
    varint t (List.length xs);
    elements t f xs

  let option t f = function
    | None -> bool t false
    | Some x ->
      bool t true;
      f t x

  let contents t = Buffer.contents t
  let length t = Buffer.length t
end

module Reader = struct
  type t = { buf : string; mutable pos : int }

  exception Truncated

  let of_string buf = { buf; pos = 0 }

  (* [n] comes from attacker-controlled length prefixes: it may be huge
     (making [t.pos + n] wrap negative on 63-bit ints and slip past a naive
     bound check).  [varint] never returns a negative, but [raw] takes any
     int.  Compare against the remaining byte count instead, which cannot
     overflow. *)
  let need t n = if n < 0 || n > String.length t.buf - t.pos then raise Truncated

  let u8 t =
    need t 1;
    let v = Char.code t.buf.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let lo = u8 t in
    let hi = u8 t in
    lo lor (hi lsl 8)

  let u32 t =
    let a = u8 t in
    let b = u8 t in
    let c = u8 t in
    let d = u8 t in
    a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

  (* Canonical LEB128 only: a terminal zero byte after the first (an
     overlong encoding such as [0x80 0x00] for 0) and a value reaching the
     sign bit are rejected, so every varint that decodes re-encodes to the
     same bytes.  Receivers verify signatures over the bytes they received,
     which is sound only when no two encodings decode to the same value. *)
  let rec take_varint t shift acc =
    if shift > 56 then raise Truncated;
    let b = u8 t in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then take_varint t (shift + 7) acc
    else if (b = 0 && shift > 0) || acc < 0 then raise Truncated
    else acc

  let varint t = take_varint t 0 0

  let bool t =
    match u8 t with
    | 0 -> false
    | 1 -> true
    | _ -> raise Truncated

  let raw t n =
    need t n;
    let s = String.sub t.buf t.pos n in
    t.pos <- t.pos + n;
    s

  let string t =
    let n = varint t in
    raw t n

  let rec take_elements t f i acc =
    if i = 0 then List.rev acc else take_elements t f (i - 1) (f t :: acc)

  let list t f =
    let n = varint t in
    (* Every element occupies at least one byte, so a count beyond the
       remaining length is garbage; reject it before allocating anything
       proportional to it. *)
    if n > String.length t.buf - t.pos then raise Truncated;
    take_elements t f n []

  let option t f = if bool t then Some (f t) else None

  let remaining t = String.length t.buf - t.pos
  let at_end t = remaining t = 0
  let expect_end t = if not (at_end t) then raise Truncated
end
