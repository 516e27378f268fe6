(* A tour of the from-scratch crypto substrate.

   Everything here is implemented in this repository on top of the OCaml
   standard library: MD5/SHA-1/SHA-256, HMAC, arbitrary-precision integers,
   RSA and DSA.  The paper's three evaluated configurations are MD5+RSA-1024,
   MD5+RSA-1536 and SHA1+DSA-1024; this example exercises each mechanism
   with real keys (smaller sizes, to stay quick).

   Run with: dune exec examples/crypto_tour.exe *)

open Sof_crypto

let rng = Sof_util.Rng.create 20060625L (* DSN 2006 *)

(* Every verdict printed below must be [true]; any [false] fails the run. *)
let all_held = ref true

let held b =
  if not b then all_held := false;
  b

let () =
  let msg = "order<c=1, o=42, D(m)=...>" in

  Format.printf "== digests ==@.";
  Format.printf "  md5    %s@." (Md5.hex msg);
  Format.printf "  sha1   %s@." (Sha1.hex msg);
  Format.printf "  sha256 %s@." (Sha256.hex msg);

  Format.printf "@.== hmac ==@.";
  let tag = Hmac.mac ~alg:Digest_alg.SHA256 ~key:"pair-shared-key" msg in
  Format.printf "  tag %s@." (Sof_util.Hex.encode tag);
  Format.printf "  verifies: %b, tampered rejected: %b@."
    (held (Hmac.verify ~alg:Digest_alg.SHA256 ~key:"pair-shared-key" ~msg ~tag))
    (held
       (not (Hmac.verify ~alg:Digest_alg.SHA256 ~key:"pair-shared-key" ~msg:(msg ^ "!") ~tag)));

  Format.printf "@.== rsa (768-bit demo key) ==@.";
  let t0 = Unix.gettimeofday () in
  let rsa = Rsa.generate rng ~bits:768 in
  Format.printf "  keygen took %.2fs@." (Unix.gettimeofday () -. t0);
  let signature = Rsa.sign rsa ~alg:Digest_alg.MD5 msg in
  let pub = Rsa.public_of_secret rsa in
  Format.printf "  signature (%d bytes) %a@." (String.length signature) Sof_util.Hex.pp
    signature;
  Format.printf "  verifies: %b, wrong message rejected: %b@."
    (held (Rsa.verify pub ~alg:Digest_alg.MD5 ~msg ~signature))
    (held (not (Rsa.verify pub ~alg:Digest_alg.MD5 ~msg:"forged" ~signature)));

  Format.printf "@.== dsa (512/160 demo parameters) ==@.";
  let t0 = Unix.gettimeofday () in
  let params = Dsa.generate_params rng ~pbits:512 ~qbits:160 in
  Format.printf "  parameter generation took %.2fs, valid: %b@."
    (Unix.gettimeofday () -. t0)
    (held (Dsa.validate_params rng params));
  let key = Dsa.generate_key rng params in
  let signature = Dsa.sign rng key ~alg:Digest_alg.SHA1 msg in
  let pub = Dsa.public_of_secret key in
  Format.printf "  signature (%d bytes) %a@." (String.length signature) Sof_util.Hex.pp
    signature;
  Format.printf "  verifies: %b, wrong message rejected: %b@."
    (held (Dsa.verify pub ~alg:Digest_alg.SHA1 ~msg ~signature))
    (held (not (Dsa.verify pub ~alg:Digest_alg.SHA1 ~msg:"forged" ~signature)));

  Format.printf "@.== the paper's cost table (2.8 GHz P4 / JDK 1.5 era) ==@.";
  List.iter
    (fun s ->
      Format.printf "  %-14s sign %6.2fms  verify %6.2fms  signature %4dB@."
        s.Scheme.name
        (float_of_int s.Scheme.costs.Scheme.sign_ns /. 1e6)
        (float_of_int s.Scheme.costs.Scheme.verify_ns /. 1e6)
        s.Scheme.costs.Scheme.signature_bytes)
    Scheme.paper_schemes;
  if not !all_held then exit 1
