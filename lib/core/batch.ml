module Request = Sof_smr.Request

type t = { requests : Request.t list }

let make requests = { requests }

let keys t = List.map (fun r -> r.Request.key) t.requests

let encoded_size t =
  List.fold_left (fun acc r -> acc + Request.encoded_size r) 0 t.requests

let encode t =
  let b = Bytes.create (encoded_size t) in
  ignore (List.fold_left (fun pos r -> Request.put b pos r) 0 t.requests : int);
  Bytes.unsafe_to_string b

let digest alg t = Sof_crypto.Digest_alg.digest alg (encode t)

let request_count t = List.length t.requests

let take_from_pool ~limit ~pool =
  let rec take bindings size acc =
    match bindings with
    | [] -> List.rev acc
    | (_, r) :: rest ->
      let s = Request.encoded_size r in
      if size + s > limit && acc <> [] then List.rev acc
      else take rest (size + s) (r :: acc)
  in
  take (Request.Key_map.bindings pool) 0 []

let take_oldest ~limit ~pool ~arrival =
  let age k =
    match Request.Key_map.find_opt k arrival with
    | Some at -> Sof_sim.Simtime.to_ns at
    | None -> max_int
  in
  let bindings =
    Request.Key_map.bindings pool
    |> List.sort (fun (k1, _) (k2, _) ->
           let c = Int.compare (age k1) (age k2) in
           if c <> 0 then c else Request.compare_key k1 k2)
  in
  let rec take bindings size acc =
    match bindings with
    | [] -> List.rev acc
    | (_, r) :: rest ->
      let s = Request.encoded_size r in
      if size + s > limit && acc <> [] then List.rev acc
      else take rest (size + s) (r :: acc)
  in
  take bindings 0 []

let pp fmt t =
  Format.fprintf fmt "batch[%d reqs, %dB]" (request_count t) (encoded_size t)
