type 'e t = { slots : 'e option array; mutable next : int (* the slot the next push overwrites *) }

let create n =
  if n < 1 then invalid_arg "Ring.create";
  { slots = Array.make n None; next = 0 }

let push t e =
  t.slots.(t.next) <- Some e;
  t.next <- (t.next + 1) mod Array.length t.slots

let rec scan t p a b i =
  if i >= Array.length t.slots then None
  else
    match t.slots.(i) with
    | Some e as held when p a b e -> held
    | Some _ | None -> scan t p a b (i + 1)

let find t p a b = scan t p a b 0
let length t = Array.fold_left (fun n e -> if Option.is_some e then n + 1 else n) 0 t.slots
