type t = int

let zero = 0

let check v = if v < 0 then invalid_arg "Simtime: negative duration" else v

let ns v = check v
let us v = check (v * 1_000)
let ms v = check (v * 1_000_000)
let sec v = check (v * 1_000_000_000)

let of_ms_float v = check (int_of_float (Float.round (v *. 1e6)))
let of_sec_float v = check (int_of_float (Float.round (v *. 1e9)))

let to_ns v = v
let to_ms v = float_of_int v /. 1e6
let to_sec v = float_of_int v /. 1e9

let add a b = a + b

let diff a b =
  if a < b then invalid_arg "Simtime.diff: negative result" else a - b

let scale a f = check (int_of_float (Float.round (float_of_int a *. f)))
let max (a : t) b = if a >= b then a else b
let min (a : t) b = if a <= b then a else b
let compare (a : t) b = Int.compare a b
let ( + ) = add

let pp fmt v =
  if v = 0 then Format.pp_print_string fmt "0"
  else if v < 1_000 then Format.fprintf fmt "%dns" v
  else if v < 1_000_000 then Format.fprintf fmt "%.2fus" (float_of_int v /. 1e3)
  else if v < 1_000_000_000 then Format.fprintf fmt "%.2fms" (to_ms v)
  else Format.fprintf fmt "%.3fs" (to_sec v)
