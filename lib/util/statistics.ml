type t = {
  mutable data : float array;
  mutable size : int;
  (* Welford running moments let [mean]/[variance] stay O(1) even for large
     sample sets. *)
  mutable running_mean : float;
  mutable m2 : float;
  mutable sorted : float array option; (* cache invalidated by [add] *)
}

let create () =
  { data = [||]; size = 0; running_mean = 0.0; m2 = 0.0; sorted = None }

let add t x =
  if t.size = Array.length t.data then begin
    let data = Array.make (Stdlib.max 16 (2 * t.size)) 0.0 in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted <- None;
  let delta = x -. t.running_mean in
  t.running_mean <- t.running_mean +. (delta /. float_of_int t.size);
  t.m2 <- t.m2 +. (delta *. (x -. t.running_mean))

let count t = t.size

let mean t = if t.size = 0 then 0.0 else t.running_mean

let variance t =
  if t.size < 2 then 0.0 else t.m2 /. float_of_int (t.size - 1)

let stddev t = sqrt (variance t)

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.sub t.data 0 t.size in
    Array.sort Float.compare a;
    t.sorted <- Some a;
    a

let min t =
  if t.size = 0 then invalid_arg "Statistics.min: empty";
  (sorted t).(0)

let max t =
  if t.size = 0 then invalid_arg "Statistics.max: empty";
  (sorted t).(t.size - 1)

let percentile t p =
  if t.size = 0 then invalid_arg "Statistics.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Statistics.percentile: out of range";
  let a = sorted t in
  let rank = p /. 100.0 *. float_of_int (t.size - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then a.(lo)
  else begin
    let w = rank -. float_of_int lo in
    (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)
  end

let median t = percentile t 50.0

let to_list t = Array.to_list (Array.sub t.data 0 t.size)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summarize t =
  {
    n = count t;
    mean = mean t;
    stddev = stddev t;
    min = min t;
    max = max t;
    p50 = percentile t 50.0;
    p95 = percentile t 95.0;
    p99 = percentile t 99.0;
  }
