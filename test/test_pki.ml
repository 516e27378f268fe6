open Sof_crypto

let rng () = Sof_util.Rng.create 77L

(* Small keys keep the suite fast; correctness does not depend on size. *)
let rsa_key = lazy (Rsa.generate (rng ()) ~bits:256)
let dsa_params = lazy (Dsa.generate_params (rng ()) ~pbits:256 ~qbits:80)
let dsa_key = lazy (Dsa.generate_key (rng ()) (Lazy.force dsa_params))

(* ------------------------------------------------------------------ RSA *)

let test_rsa_sign_verify () =
  let key = Lazy.force rsa_key in
  let pub = Rsa.public_of_secret key in
  let s = Rsa.sign key ~alg:Digest_alg.MD5 "hello world" in
  Alcotest.(check int) "signature size" 32 (String.length s);
  Alcotest.(check bool) "verifies" true
    (Rsa.verify pub ~alg:Digest_alg.MD5 ~msg:"hello world" ~signature:s)

let test_rsa_rejects_wrong_message () =
  let key = Lazy.force rsa_key in
  let pub = Rsa.public_of_secret key in
  let s = Rsa.sign key ~alg:Digest_alg.MD5 "hello world" in
  Alcotest.(check bool) "rejects" false
    (Rsa.verify pub ~alg:Digest_alg.MD5 ~msg:"hello worle" ~signature:s)

let test_rsa_rejects_wrong_alg () =
  (* The padding byte tag binds the digest algorithm. *)
  let key = Lazy.force rsa_key in
  let pub = Rsa.public_of_secret key in
  let s = Rsa.sign key ~alg:Digest_alg.MD5 "msg" in
  Alcotest.(check bool) "alg mismatch rejected" false
    (Rsa.verify pub ~alg:Digest_alg.SHA1 ~msg:"msg" ~signature:s)

let test_rsa_rejects_tampered_signature () =
  let key = Lazy.force rsa_key in
  let pub = Rsa.public_of_secret key in
  let s = Bytes.of_string (Rsa.sign key ~alg:Digest_alg.MD5 "msg") in
  Bytes.set s 5 (Char.chr (Char.code (Bytes.get s 5) lxor 0x40));
  Alcotest.(check bool) "tamper rejected" false
    (Rsa.verify pub ~alg:Digest_alg.MD5 ~msg:"msg" ~signature:(Bytes.to_string s))

let test_rsa_rejects_wrong_length () =
  let key = Lazy.force rsa_key in
  let pub = Rsa.public_of_secret key in
  Alcotest.(check bool) "short" false
    (Rsa.verify pub ~alg:Digest_alg.MD5 ~msg:"msg" ~signature:"short");
  Alcotest.(check bool) "empty" false
    (Rsa.verify pub ~alg:Digest_alg.MD5 ~msg:"msg" ~signature:"")

let test_rsa_cross_key_rejection () =
  let key1 = Lazy.force rsa_key in
  let key2 = Rsa.generate (Sof_util.Rng.create 78L) ~bits:256 in
  let s = Rsa.sign key1 ~alg:Digest_alg.MD5 "msg" in
  Alcotest.(check bool) "other key rejects" false
    (Rsa.verify (Rsa.public_of_secret key2) ~alg:Digest_alg.MD5 ~msg:"msg"
       ~signature:s)

let test_rsa_generate_validates_input () =
  Alcotest.check_raises "odd bits"
    (Invalid_argument "Rsa.generate: bits must be even and >= 64") (fun () ->
      ignore (Rsa.generate (rng ()) ~bits:63))

let test_rsa_crt_matches_plain () =
  let key = Lazy.force rsa_key in
  List.iter
    (fun msg ->
      Alcotest.(check string) "crt = plain"
        (Rsa.sign_without_crt key ~alg:Digest_alg.MD5 msg)
        (Rsa.sign key ~alg:Digest_alg.MD5 msg))
    [ ""; "a"; "the quick brown fox"; String.make 5000 'z' ]

let prop_rsa_roundtrip =
  QCheck.Test.make ~name:"rsa signs and verifies arbitrary messages" ~count:20
    QCheck.string (fun msg ->
      let key = Lazy.force rsa_key in
      let s = Rsa.sign key ~alg:Digest_alg.SHA1 msg in
      Rsa.verify (Rsa.public_of_secret key) ~alg:Digest_alg.SHA1 ~msg ~signature:s)

(* ------------------------------------------------------------------ DSA *)

let test_dsa_params_valid () =
  Alcotest.(check bool) "params validate" true
    (Dsa.validate_params (rng ()) (Lazy.force dsa_params))

let test_dsa_params_input_validation () =
  Alcotest.check_raises "qbits too small"
    (Invalid_argument "Dsa.generate_params: need qbits >= 32 and pbits >= qbits + 32")
    (fun () -> ignore (Dsa.generate_params (rng ()) ~pbits:64 ~qbits:16))

let test_dsa_sign_verify () =
  let key = Lazy.force dsa_key in
  let pub = Dsa.public_of_secret key in
  let r = rng () in
  let s = Dsa.sign r key ~alg:Digest_alg.SHA1 "attack at dawn" in
  Alcotest.(check int) "signature size"
    (Dsa.signature_size pub.Dsa.params)
    (String.length s);
  Alcotest.(check bool) "verifies" true
    (Dsa.verify pub ~alg:Digest_alg.SHA1 ~msg:"attack at dawn" ~signature:s)

let test_dsa_signatures_randomized () =
  (* Two signatures over the same message should differ (fresh k). *)
  let key = Lazy.force dsa_key in
  let r = rng () in
  let s1 = Dsa.sign r key ~alg:Digest_alg.SHA1 "m" in
  let s2 = Dsa.sign r key ~alg:Digest_alg.SHA1 "m" in
  Alcotest.(check bool) "different nonces" true (s1 <> s2);
  let pub = Dsa.public_of_secret key in
  Alcotest.(check bool) "both verify" true
    (Dsa.verify pub ~alg:Digest_alg.SHA1 ~msg:"m" ~signature:s1
    && Dsa.verify pub ~alg:Digest_alg.SHA1 ~msg:"m" ~signature:s2)

let test_dsa_rejects_wrong_message () =
  let key = Lazy.force dsa_key in
  let pub = Dsa.public_of_secret key in
  let s = Dsa.sign (rng ()) key ~alg:Digest_alg.SHA1 "m" in
  Alcotest.(check bool) "rejects" false
    (Dsa.verify pub ~alg:Digest_alg.SHA1 ~msg:"m2" ~signature:s)

let test_dsa_rejects_garbage () =
  let key = Lazy.force dsa_key in
  let pub = Dsa.public_of_secret key in
  let size = Dsa.signature_size pub.Dsa.params in
  Alcotest.(check bool) "zeros rejected" false
    (Dsa.verify pub ~alg:Digest_alg.SHA1 ~msg:"m" ~signature:(String.make size '\000'));
  Alcotest.(check bool) "short rejected" false
    (Dsa.verify pub ~alg:Digest_alg.SHA1 ~msg:"m" ~signature:"xx")

let test_dsa_cross_key_rejection () =
  let key1 = Lazy.force dsa_key in
  let key2 = Dsa.generate_key (Sof_util.Rng.create 99L) (Lazy.force dsa_params) in
  let s = Dsa.sign (rng ()) key1 ~alg:Digest_alg.SHA1 "m" in
  Alcotest.(check bool) "other key rejects" false
    (Dsa.verify (Dsa.public_of_secret key2) ~alg:Digest_alg.SHA1 ~msg:"m"
       ~signature:s)

(* --------------------------------------------------------------- Scheme *)

let test_scheme_names () =
  List.iter
    (fun s ->
      Alcotest.(check string)
        "roundtrip" s.Scheme.name
        (Scheme.of_name s.Scheme.name).Scheme.name)
    Scheme.paper_schemes;
  (* The error must name every accepted scheme (a bare echo of the bad
     input was useless at the CLI). *)
  Alcotest.check_raises "unknown"
    (Invalid_argument
       (Printf.sprintf "Scheme.of_name: unknown scheme x (accepted: %s)"
          (String.concat ", " Scheme.names)))
    (fun () -> ignore (Scheme.of_name "x"));
  List.iter
    (fun name ->
      Alcotest.(check string)
        "names roundtrip" name (Scheme.of_name name).Scheme.name)
    Scheme.names

let test_scheme_cost_asymmetries () =
  (* The relationships the paper's analysis depends on. *)
  let rsa = Scheme.md5_rsa1024.Scheme.costs in
  let rsa1536 = Scheme.md5_rsa1536.Scheme.costs in
  let dsa = Scheme.sha1_dsa1024.Scheme.costs in
  Alcotest.(check bool) "rsa verify much cheaper than sign" true
    (rsa.Scheme.verify_ns * 10 < rsa.Scheme.sign_ns);
  Alcotest.(check bool) "dsa verify about as dear as sign" true
    (dsa.Scheme.verify_ns * 2 > dsa.Scheme.sign_ns);
  Alcotest.(check bool) "dsa verify dearer than rsa verify" true
    (dsa.Scheme.verify_ns > 5 * rsa.Scheme.verify_ns);
  Alcotest.(check bool) "1536 dearer than 1024" true
    (rsa1536.Scheme.sign_ns > rsa.Scheme.sign_ns)

(* -------------------------------------------------------------- Keyring *)

let mock_ring =
  lazy
    (Keyring.create ~scheme:Scheme.mock ~rng:(Sof_util.Rng.create 5L) ~node_count:4 ())

let test_keyring_mock_sign_verify () =
  let kr = Lazy.force mock_ring in
  let s = Keyring.sign kr ~signer:2 "payload" in
  Alcotest.(check bool) "verifies" true
    (Keyring.verify kr ~signer:2 ~msg:"payload" ~signature:s);
  Alcotest.(check bool) "wrong signer rejected" false
    (Keyring.verify kr ~signer:1 ~msg:"payload" ~signature:s);
  Alcotest.(check bool) "wrong msg rejected" false
    (Keyring.verify kr ~signer:2 ~msg:"other" ~signature:s)

let test_keyring_range_checks () =
  let kr = Lazy.force mock_ring in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Keyring.sign: signer out of range") (fun () ->
      ignore (Keyring.sign kr ~signer:4 "m"));
  Alcotest.(check bool) "verify out of range is false" false
    (Keyring.verify kr ~signer:(-1) ~msg:"m" ~signature:"s")

let test_keyring_unsigned () =
  let kr =
    Keyring.create ~scheme:Scheme.null ~rng:(Sof_util.Rng.create 5L) ~node_count:3 ()
  in
  Alcotest.(check string) "empty signature" "" (Keyring.sign kr ~signer:0 "m");
  Alcotest.(check int) "size 0" 0 (Keyring.signature_size kr);
  Alcotest.(check bool) "empty verifies" true
    (Keyring.verify kr ~signer:0 ~msg:"m" ~signature:"");
  Alcotest.(check bool) "nonempty rejected" false
    (Keyring.verify kr ~signer:0 ~msg:"m" ~signature:"x")

let test_keyring_real_rsa () =
  let kr =
    Keyring.create ~key_bits:256 ~scheme:Scheme.md5_rsa1024
      ~rng:(Sof_util.Rng.create 6L) ~node_count:2 ()
  in
  Alcotest.(check int) "sig size from real key" 32 (Keyring.signature_size kr);
  let s = Keyring.sign kr ~signer:0 "m" in
  Alcotest.(check bool) "verifies" true
    (Keyring.verify kr ~signer:0 ~msg:"m" ~signature:s);
  Alcotest.(check bool) "cross-node rejected" false
    (Keyring.verify kr ~signer:1 ~msg:"m" ~signature:s)

let test_keyring_real_dsa () =
  let kr =
    Keyring.create ~key_bits:256 ~scheme:Scheme.sha1_dsa1024
      ~rng:(Sof_util.Rng.create 7L) ~node_count:2 ()
  in
  let s = Keyring.sign kr ~signer:1 "m" in
  Alcotest.(check bool) "verifies" true
    (Keyring.verify kr ~signer:1 ~msg:"m" ~signature:s);
  Alcotest.(check bool) "cross-node rejected" false
    (Keyring.verify kr ~signer:0 ~msg:"m" ~signature:s)

(* ---------------------------------------------------- conformance
   Every mechanism the paper models, held to the same contract through
   the one API the protocols use: a keyring signature round-trips, a
   flipped bit in either the message or the signature is rejected, and a
   signature never verifies against another node's identity.  Catches a
   new mechanism (like the authenticator vectors) silently weakening the
   boundary the protocol cores rely on. *)

let flip_bit s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Bytes.to_string b

(* What every simulated paper-scheme run signs with: md5-rsa1024 timing and
   wire size, HMAC bytes zero-padded to 128.  The bit-flip sweep below
   covers the 96 padding bytes too. *)
let padded_mock =
  { Scheme.md5_rsa1024 with Scheme.name = "md5-rsa1024/mock"; mechanism = Scheme.Mock_hmac }

let conformance_rings =
  lazy
    (List.map
       (fun scheme ->
         let key_bits =
           match scheme.Scheme.mechanism with
           | Scheme.Rsa _ | Scheme.Dsa _ -> Some 256
           | Scheme.Unsigned | Scheme.Mock_hmac | Scheme.Mac_vector -> None
         in
         ( scheme,
           Keyring.create ?key_bits ~scheme ~rng:(Sof_util.Rng.create 11L)
             ~node_count:4 () ))
       (padded_mock :: Scheme.all))

let test_conformance_roundtrip () =
  List.iter
    (fun (scheme, kr) ->
      let name = scheme.Scheme.name in
      let msg = "conformance " ^ name in
      let s = Keyring.sign kr ~signer:2 msg in
      Alcotest.(check bool) (name ^ ": verifies") true
        (Keyring.verify kr ~signer:2 ~msg ~signature:s);
      (* A receiver holding only its own MAC row must also accept. *)
      Alcotest.(check bool) (name ^ ": verifies for one receiver") true
        (Keyring.verify ~verifier:0 kr ~signer:2 ~msg ~signature:s))
    (Lazy.force conformance_rings)

let test_conformance_tamper_rejection () =
  List.iter
    (fun (scheme, kr) ->
      let name = scheme.Scheme.name in
      if scheme.Scheme.mechanism <> Scheme.Unsigned then begin
        let msg = "conformance " ^ name in
        let s = Keyring.sign kr ~signer:2 msg in
        Alcotest.(check bool) (name ^ ": flipped msg bit rejected") false
          (Keyring.verify kr ~signer:2 ~msg:(flip_bit msg 3) ~signature:s);
        (* Flip one bit in every signature byte position in turn: no
           position may be ignored by the verifier. *)
        String.iteri
          (fun i _ ->
            if Keyring.verify kr ~signer:2 ~msg ~signature:(flip_bit s i) then
              Alcotest.failf "%s: flipped signature bit %d accepted" name i)
          s;
        Alcotest.(check bool) (name ^ ": truncated signature rejected") false
          (Keyring.verify kr ~signer:2 ~msg
             ~signature:(String.sub s 0 (String.length s - 1)))
      end)
    (Lazy.force conformance_rings)

let test_conformance_wrong_identity () =
  List.iter
    (fun (scheme, kr) ->
      let name = scheme.Scheme.name in
      if scheme.Scheme.mechanism <> Scheme.Unsigned then begin
        let msg = "conformance " ^ name in
        let s = Keyring.sign kr ~signer:2 msg in
        Alcotest.(check bool) (name ^ ": wrong signer rejected") false
          (Keyring.verify kr ~signer:3 ~msg ~signature:s)
      end)
    (Lazy.force conformance_rings)

let test_mac_mode_vectors () =
  (* [--auth mac] provisions the pairwise matrix alongside any signing
     scheme; the vector path must hold to the same contract. *)
  let kr =
    Keyring.create ~auth:Keyring.Mac ~scheme:Scheme.mock
      ~rng:(Sof_util.Rng.create 12L) ~node_count:4 ()
  in
  Alcotest.(check bool) "matrix provisioned" true (Keyring.mac_provisioned kr);
  Alcotest.(check int) "vector size" (4 * Keyring.tag_size)
    (Keyring.vector_size kr);
  let v = Keyring.sign_vector kr ~signer:1 "m" in
  for recv = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "entry %d verifies" recv)
      true
      (Keyring.verify_vector kr ~verifier:recv ~signer:1 ~msg:"m" ~signature:v)
  done;
  Alcotest.(check bool) "flipped tag rejected for its receiver" false
    (Keyring.verify_vector kr ~verifier:0 ~signer:1 ~msg:"m"
       ~signature:(flip_bit v 0));
  (* The flipped entry belongs to receiver 0 alone; receiver 2's slice is
     untouched — the weak-certificate property MAC vectors live with. *)
  Alcotest.(check bool) "other entries unaffected" true
    (Keyring.verify_vector kr ~verifier:2 ~signer:1 ~msg:"m"
       ~signature:(flip_bit v 0));
  Alcotest.(check bool) "wrong signer rejected" false
    (Keyring.verify_vector kr ~verifier:0 ~signer:2 ~msg:"m" ~signature:v);
  (* Under the default [--auth sign] no matrix exists: determinism of the
     seeded runs depends on the key-generation draws being identical. *)
  let plain =
    Keyring.create ~scheme:Scheme.mock ~rng:(Sof_util.Rng.create 12L)
      ~node_count:4 ()
  in
  Alcotest.(check bool) "sign mode has no matrix" false
    (Keyring.mac_provisioned plain)

(* ------------------------------------------------------- pinned bytes
   Signature bytes for a fixed seed and message, pinned so a change to the
   hash kernels or the HMAC construction fails here rather than in a
   downstream seeded trajectory. *)

let test_golden_signatures () =
  let kr = Lazy.force mock_ring in
  Alcotest.(check string) "mock signature"
    "aee3b93cf1719201fd3cb0e6e910c184329c35b3589518eea8f62d496cac46d4"
    (Sof_util.Hex.encode (Keyring.sign kr ~signer:2 "payload"));
  let kr =
    Keyring.create ~auth:Keyring.Mac ~scheme:Scheme.mock
      ~rng:(Sof_util.Rng.create 12L) ~node_count:4 ()
  in
  Alcotest.(check string) "mac vector"
    ("5606344a97a098a220ae42f532089fa3104d492bb665afd73e9a51b7089d1b86"
   ^ "31485b5843f3bc06868428445451d0029baa91493fd23102c5610a70bf1a015a"
   ^ "852f448c76b4ea48fdb1272d239a1abaca3ed4972279bbd8da8d2d50f0fced51"
   ^ "7257a7e1683d7841821c1ea01294ade654b927bfb26d1f3be7a92f8aa59c3e5d")
    (Sof_util.Hex.encode (Keyring.sign_vector kr ~signer:1 "m"))

(* ------------------------------------------------------- shared keyring
   The TCP runtime's threads share one keyring, whose keyed states fill
   on first use.  Threads racing through a fresh ring must get exactly the
   single-threaded results. *)

let test_threads_share_keyring () =
  let fresh () =
    Keyring.create ~auth:Keyring.Mac ~scheme:padded_mock
      ~rng:(Sof_util.Rng.create 13L) ~node_count:4 ()
  in
  let msgs = List.init 16 (fun i -> Printf.sprintf "request %d" i) in
  let results kr =
    List.concat_map
      (fun msg ->
        List.concat_map
          (fun signer ->
            Thread.yield ();
            let s = Keyring.sign kr ~signer msg in
            let v = Keyring.sign_vector kr ~signer msg in
            [
              s;
              v;
              string_of_bool (Keyring.verify kr ~signer ~msg ~signature:s);
              string_of_bool
                (Keyring.verify_vector kr ~verifier:((signer + 1) mod 4) ~signer ~msg
                   ~signature:v);
            ])
          [ 0; 1; 2; 3 ])
      msgs
  in
  let expect = results (fresh ()) in
  let shared = fresh () in
  (* Enough rounds to span several preemption ticks, so a switch lands
     inside a MAC. *)
  let mismatches = Array.make 4 0 in
  let threads =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            for _ = 1 to 60 do
              if not (List.equal String.equal expect (results shared)) then
                mismatches.(i) <- mismatches.(i) + 1
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check (array int)) "rounds differing from one thread" [| 0; 0; 0; 0 |]
    mismatches

let suite =
  [
    ( "crypto.rsa",
      [
        Alcotest.test_case "sign/verify" `Quick test_rsa_sign_verify;
        Alcotest.test_case "wrong message" `Quick test_rsa_rejects_wrong_message;
        Alcotest.test_case "wrong alg" `Quick test_rsa_rejects_wrong_alg;
        Alcotest.test_case "tampered signature" `Quick test_rsa_rejects_tampered_signature;
        Alcotest.test_case "wrong length" `Quick test_rsa_rejects_wrong_length;
        Alcotest.test_case "cross key" `Quick test_rsa_cross_key_rejection;
        Alcotest.test_case "input validation" `Quick test_rsa_generate_validates_input;
        Alcotest.test_case "crt matches plain" `Quick test_rsa_crt_matches_plain;
        QCheck_alcotest.to_alcotest prop_rsa_roundtrip;
      ] );
    ( "crypto.dsa",
      [
        Alcotest.test_case "params valid" `Quick test_dsa_params_valid;
        Alcotest.test_case "params input validation" `Quick test_dsa_params_input_validation;
        Alcotest.test_case "sign/verify" `Quick test_dsa_sign_verify;
        Alcotest.test_case "randomized signatures" `Quick test_dsa_signatures_randomized;
        Alcotest.test_case "wrong message" `Quick test_dsa_rejects_wrong_message;
        Alcotest.test_case "garbage" `Quick test_dsa_rejects_garbage;
        Alcotest.test_case "cross key" `Quick test_dsa_cross_key_rejection;
      ] );
    ( "crypto.scheme",
      [
        Alcotest.test_case "names" `Quick test_scheme_names;
        Alcotest.test_case "cost asymmetries" `Quick test_scheme_cost_asymmetries;
      ] );
    ( "crypto.keyring",
      [
        Alcotest.test_case "mock sign/verify" `Quick test_keyring_mock_sign_verify;
        Alcotest.test_case "range checks" `Quick test_keyring_range_checks;
        Alcotest.test_case "unsigned scheme" `Quick test_keyring_unsigned;
        Alcotest.test_case "real rsa keyring" `Quick test_keyring_real_rsa;
        Alcotest.test_case "real dsa keyring" `Quick test_keyring_real_dsa;
        Alcotest.test_case "pinned signature bytes" `Quick test_golden_signatures;
        Alcotest.test_case "threads share one keyring" `Quick test_threads_share_keyring;
      ] );
    ( "crypto.conformance",
      [
        Alcotest.test_case "every mechanism round-trips" `Quick
          test_conformance_roundtrip;
        Alcotest.test_case "every mechanism rejects tampering" `Quick
          test_conformance_tamper_rejection;
        Alcotest.test_case "every mechanism binds the signer" `Quick
          test_conformance_wrong_identity;
        Alcotest.test_case "mac-mode authenticator vectors" `Quick
          test_mac_mode_vectors;
      ] );
  ]
