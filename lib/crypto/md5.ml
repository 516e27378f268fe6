(* RFC 1321.  Little-endian, 64-round compression; 32-bit words in masked
   native ints, rotated and summed as in sha256.ml. *)

let mask = 0xffffffff

(* K.(i) = floor(|sin(i+1)| * 2^32), per the RFC. *)
let k_table =
  Array.init 64 (fun i ->
      let v = abs_float (sin (float_of_int (i + 1))) *. 4294967296.0 in
      Int64.to_int (Int64.of_float v) land mask)

let s_table =
  [|
    7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22;
    5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20;
    4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23;
    6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21;
  |]

(* The message word each round reads. *)
let g_table =
  Array.init 64 (fun i ->
      if i < 16 then i
      else if i < 32 then ((5 * i) + 1) mod 16
      else if i < 48 then ((3 * i) + 5) mod 16
      else 7 * i mod 16)

let compress h m src off =
  for i = 0 to 15 do
    Array.unsafe_set m i
      (Int32.to_int (Bytes.get_int32_le src (off + (4 * i))) land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  for i = 0 to 63 do
    let f =
      if i < 16 then (!b land !c) lor (lnot !b land !d)
      else if i < 32 then (!d land !b) lor (lnot !d land !c)
      else if i < 48 then !b lxor !c lxor !d
      else !c lxor (!b lor lnot !d)
    in
    let x =
      (f + !a + Array.unsafe_get k_table i
      + Array.unsafe_get m (Array.unsafe_get g_table i))
      land mask
    in
    let x2 = x lor (x lsl 32) in
    a := !d;
    d := !c;
    c := !b;
    b := (!b + (x2 lsr (32 - Array.unsafe_get s_table i))) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask

let md =
  {
    Merkle_damgard.iv = [| 0x67452301; 0xefcdab89; 0x98badcfe; 0x10325476 |];
    big_endian = false;
    compress;
  }

let digest msg = Merkle_damgard.digest md msg
let hex msg = Sof_util.Hex.encode (digest msg)
