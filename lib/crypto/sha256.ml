(* FIPS 180-2.  Big-endian, 64-round compression; 32-bit words in masked
   native ints.  Rotations read [x lor (x lsl 32)], whose bits n..n+31 are
   [x] rotated right by n.  Sums are masked once at the end: bits above 31
   never carry down. *)

let mask = 0xffffffff

(* First 32 bits of the fractional parts of the cube roots of the first 64
   primes. *)
let k_table =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

(* The message schedule lives in a 16-word ring: from round 16 on, word i
   is computed into the slot of word i - 16, the one word of the ring no
   later round reads. *)
let compress h w src off =
  for i = 0 to 15 do
    Array.unsafe_set w i
      (Int32.to_int (Bytes.get_int32_be src (off + (4 * i))) land mask)
  done;
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for i = 0 to 63 do
    let wi =
      if i < 16 then Array.unsafe_get w i
      else begin
        let x = Array.unsafe_get w ((i - 15) land 15)
        and y = Array.unsafe_get w ((i - 2) land 15) in
        let x2 = x lor (x lsl 32) and y2 = y lor (y lsl 32) in
        let s0 = (x2 lsr 7) lxor (x2 lsr 18) lxor (x lsr 3) in
        let s1 = (y2 lsr 17) lxor (y2 lsr 19) lxor (y lsr 10) in
        let v =
          (Array.unsafe_get w (i land 15) + s0 + Array.unsafe_get w ((i - 7) land 15) + s1)
          land mask
        in
        Array.unsafe_set w (i land 15) v;
        v
      end
    in
    let e2 = !e lor (!e lsl 32) and a2 = !a lor (!a lsl 32) in
    let s1 = (e2 lsr 6) lxor (e2 lsr 11) lxor (e2 lsr 25) in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k_table i + wi in
    let s0 = (a2 lsr 2) lxor (a2 lsr 13) lxor (a2 lsr 22) in
    let maj = (!a land !b) lor (!c land (!a lor !b)) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let md =
  {
    Merkle_damgard.iv =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    big_endian = true;
    compress;
  }

let digest msg = Merkle_damgard.digest md msg
let hex msg = Sof_util.Hex.encode (digest msg)
