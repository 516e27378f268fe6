(* FIPS 180-1.  Big-endian, 80-round compression; 32-bit words in masked
   native ints, rotated and summed as in sha256.ml. *)

let mask = 0xffffffff

let k_table = [| 0x5a827999; 0x6ed9eba1; 0x8f1bbcdc; 0xca62c1d6 |]

(* The message schedule lives in a 16-word ring, as in sha256.ml. *)
let compress h w src off =
  for i = 0 to 15 do
    Array.unsafe_set w i
      (Int32.to_int (Bytes.get_int32_be src (off + (4 * i))) land mask)
  done;
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4) in
  for i = 0 to 79 do
    let wi =
      if i < 16 then Array.unsafe_get w i
      else begin
        let x =
          Array.unsafe_get w ((i - 3) land 15)
          lxor Array.unsafe_get w ((i - 8) land 15)
          lxor Array.unsafe_get w ((i - 14) land 15)
          lxor Array.unsafe_get w (i land 15)
        in
        let v = ((x lsl 1) lor (x lsr 31)) land mask in
        Array.unsafe_set w (i land 15) v;
        v
      end
    in
    let f =
      if i < 20 then (!b land !c) lor (lnot !b land !d)
      else if i < 40 || i >= 60 then !b lxor !c lxor !d
      else (!b land !c) lor (!d land (!b lor !c))
    in
    let a2 = !a lor (!a lsl 32) and b2 = !b lor (!b lsl 32) in
    let tmp =
      ((a2 lsr 27) + f + !e + Array.unsafe_get k_table (i / 20) + wi) land mask
    in
    e := !d;
    d := !c;
    c := (b2 lsr 2) land mask;
    b := !a;
    a := tmp
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask

let md =
  {
    Merkle_damgard.iv = [| 0x67452301; 0xefcdab89; 0x98badcfe; 0x10325476; 0xc3d2e1f0 |];
    big_endian = true;
    compress;
  }

let digest msg = Merkle_damgard.digest md msg
let hex msg = Sof_util.Hex.encode (digest msg)
