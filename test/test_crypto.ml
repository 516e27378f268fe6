open Sof_crypto

let check_s = Alcotest.(check string)

(* ------------------------------------------------------------------ MD5 *)
(* Vectors from RFC 1321, appendix A.5. *)

let md5_vectors =
  [
    ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
      "d174ab98d277d9f5a5611c2c9f419d9f" );
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" );
  ]

let test_md5_vectors () =
  List.iter (fun (msg, expect) -> check_s msg expect (Md5.hex msg)) md5_vectors

let test_md5_streaming () =
  (* Feeding byte-by-byte must equal one-shot hashing, across block
     boundaries. *)
  let msg = String.init 200 (fun i -> Char.chr (i land 0xff)) in
  let ctx = Merkle_damgard.init Md5.md in
  String.iter (fun c -> Merkle_damgard.feed ctx (String.make 1 c)) msg;
  check_s "streaming" (Md5.digest msg) (Merkle_damgard.finalize ctx)

(* ----------------------------------------------------------------- SHA1 *)
(* Vectors from FIPS 180-1 / RFC 3174. *)

let test_sha1_vectors () =
  check_s "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (Sha1.hex "");
  check_s "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (Sha1.hex "abc");
  check_s "two-block"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Sha1.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha1_million_a () =
  check_s "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hex (String.make 1_000_000 'a'))

let test_sha1_streaming () =
  let msg = String.init 300 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let ctx = Merkle_damgard.init Sha1.md in
  Merkle_damgard.feed ctx (String.sub msg 0 63);
  Merkle_damgard.feed ctx (String.sub msg 63 65);
  Merkle_damgard.feed ctx (String.sub msg 128 172);
  check_s "streaming" (Sha1.digest msg) (Merkle_damgard.finalize ctx)

(* --------------------------------------------------------------- SHA256 *)
(* Vectors from FIPS 180-2. *)

let test_sha256_vectors () =
  check_s "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  check_s "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  check_s "two-block"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_streaming () =
  let msg = String.init 1000 (fun i -> Char.chr ((i * 31) land 0xff)) in
  let ctx = Merkle_damgard.init Sha256.md in
  Merkle_damgard.feed ctx (String.sub msg 0 1);
  Merkle_damgard.feed ctx (String.sub msg 1 999);
  check_s "streaming" (Sha256.digest msg) (Merkle_damgard.finalize ctx)

(* --------------------------------------------------- shared block feeder *)

let algs = [ ("md5", Digest_alg.MD5); ("sha1", Digest_alg.SHA1); ("sha256", Digest_alg.SHA256) ]

let feeder_msg n = String.init n (fun i -> Char.chr (((i * 7) + 3) land 0xff))

let test_streaming_every_split () =
  (* Two feeds split at every point, across the buffered, the whole-block
     and the two-block padding paths. *)
  List.iter
    (fun (name, alg) ->
      let md = Digest_alg.md alg in
      for len = 0 to 200 do
        let msg = feeder_msg len in
        let whole = Merkle_damgard.digest md msg in
        for cut = 0 to len do
          let ctx = Merkle_damgard.init md in
          Merkle_damgard.feed ctx (String.sub msg 0 cut);
          Merkle_damgard.feed ctx (String.sub msg cut (len - cut));
          if not (String.equal whole (Merkle_damgard.finalize ctx)) then
            Alcotest.failf "%s: length %d split at %d differs" name len cut
        done
      done)
    algs

(* Pinned with python3's hashlib over [feeder_msg n]: lengths on each side
   of the one- and two-block padding boundaries. *)
let boundary_digests =
  [
    ( 0,
      [ "d41d8cd98f00b204e9800998ecf8427e";
        "da39a3ee5e6b4b0d3255bfef95601890afd80709";
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" ] );
    ( 1,
      [ "8666683506aacd900bbd5a74ac4edf68";
        "9842926af7ca0a8cca12604f945414f07b01e13d";
        "084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5" ] );
    ( 55,
      [ "52c0e574e1198de5fe3f8f11440dcb1b";
        "ddf57317ef34bfee3b6df83d359098930eb278bc";
        "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b" ] );
    ( 56,
      [ "46c9907fc908ee68b1e7b8e71286a518";
        "a0d492bb0fc889d0eca3bc137066ab6f4f74f369";
        "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27" ] );
    ( 63,
      [ "a62f6d59e837867693f042f5b8f5a236";
        "c55856749bef509bdfe6bfebfc7bf4e793e82132";
        "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055" ] );
    ( 64,
      [ "7160b8fb5e9e4023d549c3971fbaeead";
        "bede92be29c3874e1b54ddc77988d606fc857a8e";
        "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241" ] );
    ( 65,
      [ "70bd662e7aefbda85a0f7244167b7897";
        "b05a80522b053d6dc7e0a517d0e70212c7dad11f";
        "aacca6ff74fdbb296d165a45cecfa04e5127bc008770fbbdd48006f2d2fae95e" ] );
    ( 119,
      [ "e84905d4214f4d1ca56c2cdcc152b143";
        "504e27376a6e0f0dba8295b85cb25dc4dfa17d23";
        "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e" ] );
    ( 120,
      [ "e3eb5a6c8669ea01a8c185b8abc8a5dc";
        "82134b02fb3f702491be9bed581eeab59334acb2";
        "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5" ] );
    ( 127,
      [ "acce2474d6cc8302120d09c818d17ef7";
        "34d5e582029e9b9b85b2febe31da3db7cdabaaea";
        "a8d23e75d936f303d248888d9b165ee543f4cbafcad3c9dd2a79bd84faa11d07" ] );
    ( 128,
      [ "10b2da1a82f16d99a81a7203fe9f02cb";
        "a09133e6730ffe899efb70204cb5646cd5dc24ee";
        "d2742f1f4ac6bb7ca2b239ee18402ba8b3f9f8e652d2a72973c2b9ba11c08cf6" ] );
    ( 1000,
      [ "10046f077f2082ac19676b8079f1cb1a";
        "4231a8a50a10fa9758db8ec71fdef855b751048a";
        "1e9bc38cbf860b9ec31918b065f9b52476c549a782e0e7990bed8ce3868d2371" ] );
  ]

let test_boundary_digests () =
  List.iter
    (fun (len, expect) ->
      List.iter2
        (fun (name, alg) hex ->
          check_s (Printf.sprintf "%s length %d" name len) hex
            (Sof_util.Hex.encode (Digest_alg.digest alg (feeder_msg len))))
        algs expect)
    boundary_digests

(* ----------------------------------------------------------- Digest_alg *)

let test_digest_alg_dispatch () =
  check_s "md5 via alg" (Md5.digest "x") (Digest_alg.digest Digest_alg.MD5 "x");
  check_s "sha1 via alg" (Sha1.digest "x") (Digest_alg.digest Digest_alg.SHA1 "x");
  Alcotest.(check int) "md5 size" 16 (Digest_alg.size Digest_alg.MD5);
  Alcotest.(check int) "sha1 size" 20 (Digest_alg.size Digest_alg.SHA1);
  Alcotest.(check int) "sha256 size" 32 (Digest_alg.size Digest_alg.SHA256)

let test_digest_alg_names () =
  List.iter
    (fun alg ->
      Alcotest.(check bool)
        "name roundtrip" true
        (Digest_alg.equal alg (Digest_alg.of_name (Digest_alg.name alg))))
    [ Digest_alg.MD5; Digest_alg.SHA1; Digest_alg.SHA256 ];
  Alcotest.check_raises "unknown"
    (Invalid_argument "Digest_alg.of_name: unknown algorithm blake3") (fun () ->
      ignore (Digest_alg.of_name "blake3"))

(* ----------------------------------------------------------------- HMAC *)
(* HMAC-MD5 vectors from RFC 2104; HMAC-SHA256 from RFC 4231. *)

let test_hmac_md5_rfc2104 () =
  check_s "case 1" "9294727a3638bb1c13f48ef8158bfc9d"
    (Sof_util.Hex.encode
       (Hmac.mac ~alg:Digest_alg.MD5 ~key:(String.make 16 '\x0b') "Hi There"));
  check_s "case 2" "750c783e6ab0b503eaa86e310a5db738"
    (Sof_util.Hex.encode
       (Hmac.mac ~alg:Digest_alg.MD5 ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_sha256_rfc4231 () =
  let long_key = String.make 131 '\xaa' in
  List.iteri
    (fun i (key, data, expect) ->
      let tag = Sof_util.Hex.encode (Hmac.mac ~alg:Digest_alg.SHA256 ~key data) in
      (* Case 5 publishes the tag truncated to 128 bits. *)
      check_s
        (Printf.sprintf "case %d" (i + 1))
        expect
        (String.sub tag 0 (String.length expect)))
    [
      ( String.make 20 '\x0b',
        "Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
      ( "Jefe",
        "what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
      ( String.make 20 '\xaa',
        String.make 50 '\xdd',
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
      ( String.init 25 (fun i -> Char.chr (i + 1)),
        String.make 50 '\xcd',
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b" );
      ( String.make 20 '\x0c',
        "Test With Truncation",
        "a3b6167473100ee06e0c796c2955552b" );
      ( long_key,
        "Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
      ( long_key,
        "This is a test using a larger than block-size key and a larger than \
         block-size data. The key needs to be hashed before being used by the \
         HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" );
    ]

let test_hmac_long_key () =
  (* Keys longer than the block size are hashed first; just check
     verification is self-consistent. *)
  let key = String.make 200 'k' in
  let tag = Hmac.mac ~alg:Digest_alg.SHA256 ~key "msg" in
  Alcotest.(check bool) "verify ok" true
    (Hmac.verify ~alg:Digest_alg.SHA256 ~key ~msg:"msg" ~tag);
  Alcotest.(check bool) "verify rejects" false
    (Hmac.verify ~alg:Digest_alg.SHA256 ~key ~msg:"msg2" ~tag)

let test_hmac_tag_tamper () =
  let key = "secret" in
  let tag = Hmac.mac ~alg:Digest_alg.SHA1 ~key "payload" in
  let bad = Bytes.of_string tag in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 1));
  Alcotest.(check bool) "tampered tag rejected" false
    (Hmac.verify ~alg:Digest_alg.SHA1 ~key ~msg:"payload"
       ~tag:(Bytes.to_string bad))

let prop_digest_deterministic =
  QCheck.Test.make ~name:"digests are deterministic and sized" ~count:100
    QCheck.string (fun s ->
      Md5.digest s = Md5.digest s
      && String.length (Md5.digest s) = 16
      && String.length (Sha1.digest s) = 20
      && String.length (Sha256.digest s) = 32)

let prop_hmac_roundtrip =
  QCheck.Test.make ~name:"hmac verify accepts own mac" ~count:100
    QCheck.(pair string string)
    (fun (key, msg) ->
      let tag = Hmac.mac ~alg:Digest_alg.SHA256 ~key msg in
      Hmac.verify ~alg:Digest_alg.SHA256 ~key ~msg ~tag)

(* The plain RFC 2104 construction, H((K ^ opad) || H((K ^ ipad) || m)),
   as the reference the precomputed-key path must match. *)
let reference_hmac alg ~key msg =
  let key = if String.length key > 64 then Digest_alg.digest alg key else key in
  let pad byte =
    String.init 64 (fun i ->
        let k = if i < String.length key then Char.code key.[i] else 0 in
        Char.chr (k lxor byte))
  in
  let h = Digest_alg.digest alg in
  h (pad 0x5c ^ h (pad 0x36 ^ msg))

let prop_keyed_matches_reference =
  QCheck.Test.make ~name:"keyed hmac equals the rfc 2104 construction" ~count:300
    QCheck.(
      triple
        (oneofl (List.map snd algs))
        (string_of_size (Gen.oneofl [ 0; 1; 32; 63; 64; 65; 131; 200 ]))
        string)
    (fun (alg, key, msg) ->
      let k = Hmac.keyed ~alg key in
      let expect = reference_hmac alg ~key msg in
      String.equal (Hmac.tag k msg) expect
      && Hmac.check k ~msg ~tag:("xx" ^ expect) ~pos:2
      && not (Hmac.check k ~msg ~tag:expect ~pos:1))

(* --------------------------------------------------------------- Issued *)

(* One keyring and memo per mechanism the simulator signs with: the HMAC
   stand-in, the same padded to RSA-1024's wire size, authenticator vectors
   and the unsigned scheme. *)
let memos =
  lazy
    (List.map
       (fun scheme ->
         let kr =
           Keyring.create ~scheme ~rng:(Sof_util.Rng.create 9L) ~node_count:4 ()
         in
         (kr, Issued.create kr))
       [
         Scheme.mock;
         { Scheme.md5_rsa1024 with Scheme.mechanism = Scheme.Mock_hmac };
         Scheme.mac_vector;
         Scheme.null;
       ])

let flip_bit s bit =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = bit / 8 mod Bytes.length b in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
    Bytes.to_string b
  end

let prop_issued_matches_keyring =
  QCheck.Test.make ~name:"issued verify equals keyring verify" ~count:300
    QCheck.(quad (int_bound 3) (int_bound 3) string (int_bound 4095))
    (fun (which, signer, msg, bit) ->
      let kr, memo = List.nth (Lazy.force memos) which in
      let signature = Issued.sign memo ~signer msg in
      let other = (signer + 1 + (bit mod 3)) mod 4 in
      List.for_all
        (fun (signer, msg, signature) ->
          List.for_all
            (fun verifier ->
              Bool.equal
                (Issued.verify ?verifier memo ~signer ~msg ~signature)
                (Keyring.verify ?verifier kr ~signer ~msg ~signature))
            [ None; Some 0; Some signer; Some 4 ])
        [
          (signer, msg, signature);
          (signer, flip_bit msg bit, signature);
          (signer, msg, flip_bit signature bit);
          (other, msg, signature);
        ])

let mock_memo () =
  Issued.create
    (Keyring.create ~scheme:Scheme.mock ~rng:(Sof_util.Rng.create 3L) ~node_count:4 ())

let test_issued_verifies () =
  let memo = mock_memo () in
  let signature = Issued.sign memo ~signer:1 "order 7" in
  Alcotest.(check bool) "recorded" true (Issued.mem memo ~signer:1 ~msg:"order 7" ~signature);
  Alcotest.(check bool) "verifies" true
    (Issued.verify ~verifier:2 memo ~signer:1 ~msg:"order 7" ~signature);
  Alcotest.(check bool) "other signer" false
    (Issued.verify memo ~signer:2 ~msg:"order 7" ~signature);
  Alcotest.(check int) "one entry" 1 (Issued.length memo)

let test_issued_bounded () =
  let memo = mock_memo () in
  let first = Issued.sign memo ~signer:0 "m0" in
  for i = 1 to Issued.capacity + 10 do
    ignore (Issued.sign memo ~signer:(i mod 4) (Printf.sprintf "m%d" i))
  done;
  Alcotest.(check bool) "bounded" true (Issued.length memo <= Issued.capacity);
  Alcotest.(check bool) "first evicted" false
    (Issued.mem memo ~signer:0 ~msg:"m0" ~signature:first);
  Alcotest.(check bool) "evicted still verifies" true
    (Issued.verify memo ~signer:0 ~msg:"m0" ~signature:first);
  Alcotest.(check bool) "evicted forgery still fails" false
    (Issued.verify memo ~signer:0 ~msg:"m1" ~signature:first)

let test_issued_skips_empty () =
  let memo =
    Issued.create
      (Keyring.create ~scheme:Scheme.null ~rng:(Sof_util.Rng.create 3L) ~node_count:3 ())
  in
  Alcotest.(check string) "empty" "" (Issued.sign memo ~signer:0 "m");
  Alcotest.(check int) "not recorded" 0 (Issued.length memo);
  Alcotest.(check bool) "verifies" true (Issued.verify memo ~signer:0 ~msg:"m" ~signature:"");
  Alcotest.(check bool) "non-empty rejected" false
    (Issued.verify memo ~signer:0 ~msg:"m" ~signature:"x")

let test_table_capacity () =
  let t = Issued.Table.create () in
  for i = 0 to Issued.capacity - 1 do
    Issued.Table.add t ~signer:0 ~msg:(string_of_int i) ~signature:"s" i
  done;
  Alcotest.(check int) "full" Issued.capacity (Issued.Table.length t);
  Issued.Table.add t ~signer:0 ~msg:"0" ~signature:"s" 42;
  Alcotest.(check int) "reset, then added" 1 (Issued.Table.length t);
  Alcotest.(check (option int)) "new binding" (Some 42)
    (Issued.Table.find_opt t ~signer:0 ~msg:"0" ~signature:"s");
  Alcotest.(check (option int)) "other signer" None
    (Issued.Table.find_opt t ~signer:1 ~msg:"0" ~signature:"s")

let suite =
  [
    ( "crypto.md5",
      [
        Alcotest.test_case "rfc1321 vectors" `Quick test_md5_vectors;
        Alcotest.test_case "streaming" `Quick test_md5_streaming;
      ] );
    ( "crypto.sha1",
      [
        Alcotest.test_case "fips vectors" `Quick test_sha1_vectors;
        Alcotest.test_case "million a" `Slow test_sha1_million_a;
        Alcotest.test_case "streaming" `Quick test_sha1_streaming;
      ] );
    ( "crypto.sha256",
      [
        Alcotest.test_case "fips vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "streaming" `Quick test_sha256_streaming;
      ] );
    ( "crypto.feeder",
      [
        Alcotest.test_case "every split point" `Quick test_streaming_every_split;
        Alcotest.test_case "padding boundaries" `Quick test_boundary_digests;
      ] );
    ( "crypto.digest_alg",
      [
        Alcotest.test_case "dispatch" `Quick test_digest_alg_dispatch;
        Alcotest.test_case "names" `Quick test_digest_alg_names;
      ] );
    ( "crypto.hmac",
      [
        Alcotest.test_case "rfc2104 md5" `Quick test_hmac_md5_rfc2104;
        Alcotest.test_case "rfc4231 sha256" `Quick test_hmac_sha256_rfc4231;
        Alcotest.test_case "long key" `Quick test_hmac_long_key;
        Alcotest.test_case "tag tamper" `Quick test_hmac_tag_tamper;
        QCheck_alcotest.to_alcotest prop_digest_deterministic;
        QCheck_alcotest.to_alcotest prop_hmac_roundtrip;
        QCheck_alcotest.to_alcotest prop_keyed_matches_reference;
      ] );
    ( "crypto.issued",
      [
        Alcotest.test_case "issued triple verifies" `Quick test_issued_verifies;
        Alcotest.test_case "bounded, evicted still verify" `Quick test_issued_bounded;
        Alcotest.test_case "empty signatures not recorded" `Quick test_issued_skips_empty;
        Alcotest.test_case "table resets at capacity" `Quick test_table_capacity;
        QCheck_alcotest.to_alcotest prop_issued_matches_keyring;
      ] );
  ]
