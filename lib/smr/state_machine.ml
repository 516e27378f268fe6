type t = {
  name : string;
  mutable apply_op : string -> string;
  mutable digest_now : unit -> string;
  mutable snapshot_now : unit -> string;
  mutable restore_image : string -> unit;
  mutable ops : int;
  mutable digest : string option;  (* of the current state, once asked *)
}

let create ~name ~init ~apply ~digest ?snapshot ?restore () =
  let state = ref init in
  let t =
    {
      name;
      apply_op = (fun _ -> "");
      digest_now = (fun () -> "");
      snapshot_now = (fun () -> "");
      restore_image = (fun _ -> ());
      ops = 0;
      digest = None;
    }
  in
  t.apply_op <-
    (fun op ->
      let state', reply = apply !state op in
      state := state';
      reply);
  t.digest_now <- (fun () -> digest !state);
  (match snapshot with
  | Some f -> t.snapshot_now <- (fun () -> f !state)
  | None -> ());
  (match restore with
  | Some f ->
    t.restore_image <-
      (fun image -> match f image with Some s -> state := s | None -> ())
  | None -> ());
  t

let name t = t.name

let apply t op =
  t.ops <- t.ops + 1;
  t.digest <- None;
  t.apply_op op

let state_digest t =
  match t.digest with
  | Some d -> d
  | None ->
    let d = t.digest_now () in
    t.digest <- Some d;
    d

let snapshot t = t.snapshot_now ()

let restore t image =
  t.digest <- None;
  t.restore_image image

let ops_applied t = t.ops
