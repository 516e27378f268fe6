module Codec = Sof_util.Codec
module Request = Sof_smr.Request
module Fnv = Sof_util.Fnv
module Ring = Sof_util.Ring

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
let batch_window = 16

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

(* A checkpoint's write-ahead-log payload is the image's length as a
   varint, the image, then the certificate.  The image leads because every
   replica persists the same image under its own certificate: the checksum
   of the length and image is computed once per driver ([Images.checksum])
   and each replica feeds on only its certificate. *)
let length_prefix image =
  let b = Bytes.create (Codec.varint_size (String.length image)) in
  ignore (Codec.put_varint b 0 (String.length image) : int);
  Bytes.unsafe_to_string b

let payload_checksum image =
  let head = length_prefix image in
  Fnv.feed
    (Fnv.feed Fnv.basis head ~pos:0 ~len:(String.length head))
    image ~pos:0 ~len:(String.length image)

(* Correct replicas wrap byte-identical images at a boundary and hash the
   batches they deliver alike, so a driver that asks once per replica
   mostly asks about bytes it has just digested.  A hit hands back the
   string already held, so the replicas of a driver keep one copy of each
   image between them.  The lookups scan a [Ring] with top-level
   predicates: they allocate nothing.  [String.equal] answers at once for the same
   string, which is what agreeing replicas hand in. *)
module Images = struct
  type entry = {
    alg : Sof_crypto.Digest_alg.t;
    bytes : string;
    digest : string;
    mutable checksum : int;  (* [payload_checksum bytes], or -1 until asked *)
  }

  type wrapped = { state : string; marks : (int * int) list; image : string }

  type t = {
    recent : entry Ring.t;  (* the latest distinct byte strings *)
    wraps : wrapped Ring.t;  (* the latest wrapped images *)
    mutable asked : int;
    mutable computed : int;
  }

  let create ?(window = image_window) () =
    { recent = Ring.create window; wraps = Ring.create image_window; asked = 0; computed = 0 }

  let holds alg bytes e = Sof_crypto.Digest_alg.equal e.alg alg && String.equal e.bytes bytes

  let remember t alg bytes =
    t.asked <- t.asked + 1;
    match Ring.find t.recent holds alg bytes with
    | Some e -> e
    | None ->
      let e =
        { alg; bytes; digest = Sof_crypto.Digest_alg.digest alg bytes; checksum = -1 }
      in
      t.computed <- t.computed + 1;
      Ring.push t.recent e;
      e

  let digest t alg bytes =
    let e = remember t alg bytes in
    (e.bytes, e.digest)

  let hash t alg bytes = (remember t alg bytes).digest

  let equal_mark (c, l) (c', l') = Int.equal c c' && Int.equal l l'
  let wrapped state marks w = String.equal w.state state && List.equal equal_mark w.marks marks

  let wrap t ~state ~marks =
    match Ring.find t.wraps wrapped state marks with
    | Some w -> w.image
    | None ->
      let image = wrap_image ~state ~marks in
      Ring.push t.wraps { state; marks; image };
      image

  let checksum t alg image =
    match Ring.find t.recent holds alg image with
    | None -> payload_checksum image
    | Some e ->
      if e.checksum < 0 then e.checksum <- payload_checksum image;
      e.checksum

  let asked t = t.asked
  let computed t = t.computed
  let length t = Ring.length t.recent
end

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

let log_payload images alg cert image =
  let w = Codec.Writer.create () in
  write_cert w cert;
  let cert = Codec.Writer.contents w in
  ( [ length_prefix image; image; cert ],
    Fnv.feed (Images.checksum images alg image) cert ~pos:0 ~len:(String.length cert) )

let decode_log_payload s =
  match
    let r = Codec.Reader.of_string s in
    let image = Codec.Reader.string r in
    let cert = read_cert r in
    Codec.Reader.expect_end r;
    (cert, image)
  with
  | v -> Some v
  | exception Codec.Reader.Truncated -> None
