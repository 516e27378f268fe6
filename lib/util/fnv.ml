(* FNV-1a, 32-bit.  The hot loop runs on an unboxed [Int64] and masks only
   once at the end: the low 32 bits of a product depend only on the low 32
   bits of its operands, so the wider register gives the same hash with a
   shorter dependency chain per byte than masked tagged-int arithmetic. *)

let basis = 0x811c9dc5
let prime = 0x01000193

let feed_byte h b = (h lxor b) * prime land 0xffffffff

let feed h s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Fnv.feed";
  let h = ref (Int64.of_int h) in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x01000193L
  done;
  Int64.to_int !h land 0xffffffff

let string s = feed basis s ~pos:0 ~len:(String.length s)
