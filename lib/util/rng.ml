type t = { mutable state : int64; seed : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed; seed }

let copy t = { state = t.state; seed = t.seed }

let seed t = t.seed

(* SplitMix64 output function: add the gamma, then two xor-shift-multiply
   mixing rounds. *)
let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = int64 t in
  create seed

(* FNV-1a over the label bytes, 64-bit variant.  Any decent string hash
   works here; FNV is already the project's checksum workhorse and needs
   no tables. *)
let fnv1a_64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let substream t label =
  (* Derive the child seed from the parent's creation seed, not its current
     state: the substream for a given (seed, label) is the same no matter
     how much of the parent stream has been consumed.  One SplitMix64 mixing
     round over seed xor hash(label) decorrelates nearby labels. *)
  let child = create (Int64.logxor t.seed (fnv1a_64 label)) in
  int64 child |> ignore;
  child

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over a 62-bit draw to avoid modulo bias. *)
  let rec draw () =
    let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
    let v = r mod bound in
    if r - v > max_int - (bound - 1) then draw () else v
  in
  draw ()

let float t bound =
  (* 53 uniform bits into [0,1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (int t 256))
  done;
  b

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let normal t ~mu ~sigma =
  let u1 = float t 1.0 and u2 = float t 1.0 in
  let u1 = if u1 <= 0.0 then 1e-12 else u1 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))
