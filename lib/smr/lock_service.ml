module Codec = Sof_util.Codec

type op =
  | Acquire of { lock : string; owner : string }
  | Release of { lock : string; owner : string }
  | Query of { lock : string }

type reply =
  | Granted
  | Queued of int
  | Released
  | Not_holder
  | Holder of string option
  | Bad_request

let encode_op op =
  let w = Codec.Writer.create () in
  (match op with
  | Acquire { lock; owner } ->
    Codec.Writer.u8 w 0;
    Codec.Writer.string w lock;
    Codec.Writer.string w owner
  | Release { lock; owner } ->
    Codec.Writer.u8 w 1;
    Codec.Writer.string w lock;
    Codec.Writer.string w owner
  | Query { lock } ->
    Codec.Writer.u8 w 2;
    Codec.Writer.string w lock);
  Codec.Writer.contents w

let decode_op s =
  let r = Codec.Reader.of_string s in
  let op =
    match Codec.Reader.u8 r with
    | 0 ->
      let lock = Codec.Reader.string r in
      Acquire { lock; owner = Codec.Reader.string r }
    | 1 ->
      let lock = Codec.Reader.string r in
      Release { lock; owner = Codec.Reader.string r }
    | 2 -> Query { lock = Codec.Reader.string r }
    | _ -> raise Codec.Reader.Truncated
  in
  Codec.Reader.expect_end r;
  op

let encode_reply reply =
  let w = Codec.Writer.create () in
  (match reply with
  | Granted -> Codec.Writer.u8 w 0
  | Queued n ->
    Codec.Writer.u8 w 1;
    Codec.Writer.varint w n
  | Released -> Codec.Writer.u8 w 2
  | Not_holder -> Codec.Writer.u8 w 3
  | Holder h ->
    Codec.Writer.u8 w 4;
    Codec.Writer.option w Codec.Writer.string h
  | Bad_request -> Codec.Writer.u8 w 5);
  Codec.Writer.contents w

let decode_reply s =
  let r = Codec.Reader.of_string s in
  let reply =
    match Codec.Reader.u8 r with
    | 0 -> Granted
    | 1 -> Queued (Codec.Reader.varint r)
    | 2 -> Released
    | 3 -> Not_holder
    | 4 -> Holder (Codec.Reader.option r Codec.Reader.string)
    | 5 -> Bad_request
    | _ -> raise Codec.Reader.Truncated
  in
  Codec.Reader.expect_end r;
  reply

module Locks = Map.Make (String)

(* Per lock: current holder plus FIFO waiters (most recent last). *)
type lock_state = { holder : string; waiters : string list }

let apply state op_bytes =
  match decode_op op_bytes with
  | exception Codec.Reader.Truncated -> (state, encode_reply Bad_request)
  | Acquire { lock; owner } -> begin
    match Locks.find_opt lock state with
    | None -> (Locks.add lock { holder = owner; waiters = [] } state, encode_reply Granted)
    | Some ls when ls.holder = owner -> (state, encode_reply Granted)
    | Some ls when List.mem owner ls.waiters ->
      (* Idempotent: re-acquiring reports the current queue position. *)
      let rec index i = function
        | [] -> i
        | w :: rest -> if w = owner then i else index (i + 1) rest
      in
      (state, encode_reply (Queued (1 + index 0 ls.waiters)))
    | Some ls ->
      ( Locks.add lock { ls with waiters = ls.waiters @ [ owner ] } state,
        encode_reply (Queued (1 + List.length ls.waiters)) )
  end
  | Release { lock; owner } -> begin
    match Locks.find_opt lock state with
    | Some ls when ls.holder = owner -> begin
      match ls.waiters with
      | [] -> (Locks.remove lock state, encode_reply Released)
      | next :: rest ->
        (Locks.add lock { holder = next; waiters = rest } state, encode_reply Released)
    end
    | Some _ | None -> (state, encode_reply Not_holder)
  end
  | Query { lock } ->
    let holder = Option.map (fun ls -> ls.holder) (Locks.find_opt lock state) in
    (state, encode_reply (Holder holder))

let digest state =
  let ctx = Sof_crypto.(Merkle_damgard.init Sha256.md) in
  Locks.iter
    (fun lock ls ->
      Sof_crypto.Merkle_damgard.feed ctx lock;
      Sof_crypto.Merkle_damgard.feed ctx "\x00";
      Sof_crypto.Merkle_damgard.feed ctx ls.holder;
      List.iter
        (fun w ->
          Sof_crypto.Merkle_damgard.feed ctx "\x01";
          Sof_crypto.Merkle_damgard.feed ctx w)
        ls.waiters;
      Sof_crypto.Merkle_damgard.feed ctx "\x02")
    state;
  Sof_crypto.Merkle_damgard.finalize ctx

let snapshot state =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w (Locks.cardinal state);
  Locks.iter
    (fun lock ls ->
      Codec.Writer.string w lock;
      Codec.Writer.string w ls.holder;
      Codec.Writer.list w Codec.Writer.string ls.waiters)
    state;
  Codec.Writer.contents w

let restore image =
  match
    let r = Codec.Reader.of_string image in
    let n = Codec.Reader.varint r in
    let rec go state i =
      if i >= n then state
      else begin
        let lock = Codec.Reader.string r in
        let holder = Codec.Reader.string r in
        let waiters = Codec.Reader.list r Codec.Reader.string in
        go (Locks.add lock { holder; waiters } state) (i + 1)
      end
    in
    let state = go Locks.empty 0 in
    Codec.Reader.expect_end r;
    state
  with
  | state -> Some state
  | exception Codec.Reader.Truncated -> None

let machine () =
  State_machine.create ~name:"locks" ~init:Locks.empty ~apply ~digest ~snapshot ~restore ()
