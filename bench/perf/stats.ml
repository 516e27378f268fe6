(* Order statistics owned by the benchmark, so a change to the program's
   own statistics code cannot move the numbers that judge it. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [p] in [0, 100]. *)
let percentile l p =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float rank in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((a.(hi) -. a.(lo)) *. (rank -. float_of_int lo))

let median l = percentile l 50.0
let sum = List.fold_left ( +. ) 0.0

(* First and third quartile by Python's [statistics.quantiles(values, n=4)]
   (the default "exclusive" method), so recorded spreads read the same as
   any script that recomputes them. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 1 then a.(0) else nan in
    (v, v)
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)
