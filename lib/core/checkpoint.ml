module Codec = Sof_util.Codec
module Request = Sof_smr.Request

type cert = {
  cp_seq : int;
  cp_digest : string;
  cp_proof : (int * string) list;
  cp_endorsement : (int * string) option;
}

type entry = {
  e_o : int;
  e_digest : string;
  e_requests : Request.t list;
}

let is_boundary ~interval seq = interval > 0 && seq > 0 && Int.equal (seq mod interval) 0

let image_digest alg image = Sof_crypto.Digest_alg.digest alg image

let image_window = 4

(* Correct replicas wrap byte-identical images at a boundary, so a driver
   that asks once per replica mostly asks about bytes it has just digested.
   A hit hands back the string already held, so the replicas of a driver
   keep one copy of each image between them. *)
module Images = struct
  type entry = { alg : Sof_crypto.Digest_alg.t; image : string; digest : string }

  type t = {
    recent : entry option array;  (* ring of the latest distinct images *)
    mutable next : int;  (* the slot the next miss overwrites *)
    mutable asked : int;
    mutable computed : int;
  }

  let create () = { recent = Array.make image_window None; next = 0; asked = 0; computed = 0 }

  let find t alg image =
    Array.find_map
      (function
        | Some e when Sof_crypto.Digest_alg.equal e.alg alg && String.equal e.image image ->
          Some e
        | Some _ | None -> None)
      t.recent

  let digest t alg image =
    t.asked <- t.asked + 1;
    match find t alg image with
    | Some e -> (e.image, e.digest)
    | None ->
      let digest = image_digest alg image in
      t.computed <- t.computed + 1;
      t.recent.(t.next) <- Some { alg; image; digest };
      t.next <- (t.next + 1) mod image_window;
      (image, digest)

  let asked t = t.asked
  let computed t = t.computed
  let length t = Array.fold_left (fun n e -> if Option.is_some e then n + 1 else n) 0 t.recent
end

(* A checkpoint image carries the per-client delivery high-water marks
   alongside the service snapshot: the at-most-once filter is replicated
   state too.  A recovered process that lost it would re-deliver a request
   that a coordinator elected across a partition legally rebatches — PBFT
   keeps its reply cache inside the checkpoint for exactly this reason.
   The marks (not the raw delivered-key sets, which processes prune at
   their own pace) are deterministic: correct processes deliver the same
   order, so at the same boundary they hold the same marks and wrap
   byte-identical images. *)

let read_mark r =
  let client = Codec.Reader.varint r in
  let last = Codec.Reader.varint r in
  (client, last)

(* Sized first and filled once, like the snapshot it wraps: the state as a
   length-prefixed string, then the count of marks and each mark's two
   varints, the layout [unwrap_image] reads. *)
let mark_size size (client, last) = size + Codec.varint_size client + Codec.varint_size last
let put_mark b pos (client, last) = Codec.put_varint b (Codec.put_varint b pos client) last

let wrap_image ~state ~marks =
  let count = List.length marks in
  let size =
    Codec.varint_size (String.length state) + String.length state + Codec.varint_size count
  in
  let b = Bytes.create (List.fold_left mark_size size marks) in
  let pos = Codec.put_varint b (Codec.put_string b 0 state) count in
  ignore (List.fold_left (put_mark b) pos marks : int);
  Bytes.unsafe_to_string b

let unwrap_image image =
  match
    let r = Codec.Reader.of_string image in
    let state = Codec.Reader.string r in
    let marks = Codec.Reader.list r read_mark in
    Codec.Reader.expect_end r;
    (state, marks)
  with
  | result -> Some result
  | exception Codec.Reader.Truncated -> None

let equal_tuple (i, s) (j, u) = Int.equal i j && String.equal s u

let equal_cert a b =
  Int.equal a.cp_seq b.cp_seq
  && String.equal a.cp_digest b.cp_digest
  && List.equal equal_tuple a.cp_proof b.cp_proof
  && Option.equal equal_tuple a.cp_endorsement b.cp_endorsement

let write_tuple w (signer, signature) =
  Codec.Writer.varint w signer;
  Codec.Writer.string w signature

let read_tuple r =
  let signer = Codec.Reader.varint r in
  let signature = Codec.Reader.string r in
  (signer, signature)

let write_cert w c =
  Codec.Writer.varint w c.cp_seq;
  Codec.Writer.string w c.cp_digest;
  Codec.Writer.list w write_tuple c.cp_proof;
  Codec.Writer.option w write_tuple c.cp_endorsement

let read_cert r =
  let cp_seq = Codec.Reader.varint r in
  let cp_digest = Codec.Reader.string r in
  let cp_proof = Codec.Reader.list r read_tuple in
  let cp_endorsement = Codec.Reader.option r read_tuple in
  { cp_seq; cp_digest; cp_proof; cp_endorsement }

let write_request w (req : Request.t) = Codec.Writer.string w (Request.encode req)

let read_request r = Request.decode (Codec.Reader.string r)

let write_entry w e =
  Codec.Writer.varint w e.e_o;
  Codec.Writer.string w e.e_digest;
  Codec.Writer.list w write_request e.e_requests

let read_entry r =
  let e_o = Codec.Reader.varint r in
  let e_digest = Codec.Reader.string r in
  let e_requests = Codec.Reader.list r read_request in
  { e_o; e_digest; e_requests }

let pp_cert fmt c =
  Format.fprintf fmt "checkpoint<seq=%d, %d signer%s%s>" c.cp_seq
    (List.length c.cp_proof)
    (if Int.equal (List.length c.cp_proof) 1 then "" else "s")
    (match c.cp_endorsement with Some (who, _) -> Printf.sprintf ", endorsed by %d" who | None -> "")
