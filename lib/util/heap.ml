(* Entry [i] is [(keys.(i), seqs.(i), values.(i))]; [seq] is the push count,
   so [(key, seq)] orders every entry strictly and equal keys pop FIFO. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* Does entry [i] sort before [(key, seq)]? *)
let before t i key seq =
  let k = t.keys.(i) in
  k < key || (k = key && t.seqs.(i) < seq)

let move t ~src ~dst =
  t.keys.(dst) <- t.keys.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.values.(dst) <- t.values.(src)

let place t i key seq value =
  t.keys.(i) <- key;
  t.seqs.(i) <- seq;
  t.values.(i) <- value

(* Both sifts carry one entry down from a hole at [i] (or up to it) and write
   it once, where it comes to rest. *)
let rec sift_up t i key seq value =
  let parent = (i - 1) / 2 in
  if i > 0 && not (before t parent key seq) then begin
    move t ~src:parent ~dst:i;
    sift_up t parent key seq value
  end
  else place t i key seq value

let rec sift_down t i key seq value =
  let left = (2 * i) + 1 in
  if left >= t.size then place t i key seq value
  else begin
    let right = left + 1 in
    let child =
      if right < t.size && before t right t.keys.(left) t.seqs.(left) then right else left
    in
    if before t child key seq then begin
      move t ~src:child ~dst:i;
      sift_down t child key seq value
    end
    else place t i key seq value
  end

let grow t value =
  let capacity = Array.length t.keys in
  let fresh = max 8 (2 * capacity) in
  let keys = Array.make fresh 0 and seqs = Array.make fresh 0 in
  let values = Array.make fresh value in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.keys <- keys;
  t.seqs <- seqs;
  t.values <- values

let push t ~key value =
  if t.size = Array.length t.keys then grow t value;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) key seq value

let top t = if t.size = 0 then invalid_arg "Heap.top: empty heap" else t.values.(0)

let pop_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let top = t.values.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    sift_down t 0 t.keys.(last) t.seqs.(last) t.values.(last);
    (* The vacated slot would otherwise keep its value alive. *)
    t.values.(last) <- t.values.(0)
  end;
  top

let retain t keep =
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    if keep t.values.(i) then begin
      move t ~src:i ~dst:!kept;
      incr kept
    end
  done;
  let n = !kept in
  if n = 0 then begin
    t.keys <- [||];
    t.seqs <- [||];
    t.values <- [||]
  end
  else Array.fill t.values n (t.size - n) t.values.(0);
  t.size <- n;
  for i = (n / 2) - 1 downto 0 do
    sift_down t i t.keys.(i) t.seqs.(i) t.values.(i)
  done
