type triple = { signer : int; msg : string; signature : string }

(* Signatures are short and close to uniform, so they hash well and far
   more cheaply than the messages they sign. *)
module Tbl = Hashtbl.Make (struct
  type t = triple

  let equal a b =
    Int.equal a.signer b.signer
    && String.equal a.signature b.signature
    && String.equal a.msg b.msg

  let hash k = Hashtbl.hash k.signature
end)

let capacity = 8192

module Table = struct
  type 'a t = 'a Tbl.t

  let create () = Tbl.create 64
  let find_opt t ~signer ~msg ~signature = Tbl.find_opt t { signer; msg; signature }
  let mem t ~signer ~msg ~signature = Tbl.mem t { signer; msg; signature }

  let add t ~signer ~msg ~signature v =
    if Tbl.length t >= capacity then Tbl.reset t;
    Tbl.replace t { signer; msg; signature } v

  let length = Tbl.length
end

type t = { keyring : Keyring.t; issued : unit Table.t }

let create keyring = { keyring; issued = Table.create () }

(* The unsigned scheme's empty signatures would all share one bucket, and
   checking one costs nothing anyway. *)
let sign t ~signer msg =
  let signature = Keyring.sign t.keyring ~signer msg in
  if String.length signature > 0 then Table.add t.issued ~signer ~msg ~signature ();
  signature

let mem t ~signer ~msg ~signature = Table.mem t.issued ~signer ~msg ~signature

(* A [Mac_vector] signature checks only the verifier's own entry, and an
   out-of-range verifier fails; every issued entry is good, so only the
   range needs asking. *)
let verify ?verifier t ~signer ~msg ~signature =
  ((match verifier with
   | None -> true
   | Some v -> v >= 0 && v < Keyring.node_count t.keyring)
  && mem t ~signer ~msg ~signature)
  || Keyring.verify ?verifier t.keyring ~signer ~msg ~signature

let length t = Table.length t.issued
