(* Checkpoint and recovery tests: the certificate/entry codec, image
   wrapping, certificate verification under each trust model, and
   cluster-level crash-restart recovery — including a Byzantine responder
   serving corrupt or stale checkpoint images. *)

module Simtime = Sof_sim.Simtime
module Codec = Sof_util.Codec
module P = Sof_protocol
module H = Sof_harness
module Cluster = H.Cluster
module Workload = H.Workload
module Checkpoint = P.Checkpoint
module Recovery = P.Recovery
module Request = Sof_smr.Request

let ms = Simtime.ms
let sec = Simtime.sec

(* ---------------------------------------------------------------- codec *)

let roundtrip_cert c =
  let w = Codec.Writer.create () in
  Checkpoint.write_cert w c;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  let c' = Checkpoint.read_cert r in
  Codec.Reader.expect_end r;
  Alcotest.(check bool) "cert survives codec" true (Checkpoint.equal_cert c c')

let test_cert_roundtrip () =
  roundtrip_cert
    {
      Checkpoint.cp_seq = 8;
      cp_digest = "digest-bytes";
      cp_proof = [ (0, "sig0"); (2, "sig2"); (3, "sig3") ];
      cp_endorsement = None;
    };
  roundtrip_cert
    {
      Checkpoint.cp_seq = 16;
      cp_digest = "d";
      cp_proof = [ (1, "primary-sig") ];
      cp_endorsement = Some (2, "shadow-endorsement");
    }

let test_entry_roundtrip () =
  let e =
    {
      Checkpoint.e_o = 9;
      e_digest = "batch-digest";
      e_requests =
        [
          Request.make ~client:1 ~client_seq:4 ~op:"set a";
          Request.make ~client:2 ~client_seq:1 ~op:"set b";
        ];
    }
  in
  let w = Codec.Writer.create () in
  Checkpoint.write_entry w e;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  let e' = Checkpoint.read_entry r in
  Codec.Reader.expect_end r;
  Alcotest.(check int) "seq" e.Checkpoint.e_o e'.Checkpoint.e_o;
  Alcotest.(check string) "digest" e.Checkpoint.e_digest e'.Checkpoint.e_digest;
  Alcotest.(check int) "request count" 2 (List.length e'.Checkpoint.e_requests);
  List.iter2
    (fun (a : Request.t) (b : Request.t) ->
      Alcotest.(check string) "op" a.Request.op b.Request.op;
      Alcotest.(check int) "client" a.Request.key.Request.client
        b.Request.key.Request.client)
    e.Checkpoint.e_requests e'.Checkpoint.e_requests

let test_image_wrap_roundtrip () =
  let state = "service-snapshot-bytes" in
  let marks = [ (1, 14); (2, 9); (7, 230) ] in
  let image = Checkpoint.wrap_image ~state ~marks in
  (match Checkpoint.unwrap_image image with
  | None -> Alcotest.fail "well-formed image rejected"
  | Some (state', marks') ->
    Alcotest.(check string) "state" state state';
    Alcotest.(check (list (pair int int))) "marks" marks marks');
  (* Empty marks and empty state are legal images too. *)
  match Checkpoint.unwrap_image (Checkpoint.wrap_image ~state:"" ~marks:[]) with
  | Some ("", []) -> ()
  | Some _ | None -> Alcotest.fail "empty image did not roundtrip"

let test_image_unwrap_rejects_malformed () =
  Alcotest.(check bool)
    "truncated bytes rejected" true
    (Checkpoint.unwrap_image "\xff\xff\xff" = None);
  let image = Checkpoint.wrap_image ~state:"snapshot" ~marks:[ (1, 1) ] in
  let truncated = String.sub image 0 (String.length image - 1) in
  Alcotest.(check bool)
    "chopped image rejected" true
    (Checkpoint.unwrap_image truncated = None)

let test_image_canonical_bytes () =
  (* Same state + same marks must wrap to identical bytes: the certified
     digest is over the wrapped image, so agreement depends on it. *)
  let a = Checkpoint.wrap_image ~state:"s" ~marks:[ (1, 5); (2, 3) ] in
  let b = Checkpoint.wrap_image ~state:"s" ~marks:[ (1, 5); (2, 3) ] in
  Alcotest.(check string) "deterministic bytes" a b

let test_is_boundary () =
  Alcotest.(check bool) "interval 0 never" false (Checkpoint.is_boundary ~interval:0 8);
  Alcotest.(check bool) "zero never" false (Checkpoint.is_boundary ~interval:8 0);
  Alcotest.(check bool) "multiple yes" true (Checkpoint.is_boundary ~interval:8 16);
  Alcotest.(check bool) "non-multiple no" false (Checkpoint.is_boundary ~interval:8 12)

(* --------------------------------------------------- cert verification *)

let keyring =
  lazy
    (let rng = Sof_util.Rng.create 99L in
     Sof_crypto.Keyring.create ~scheme:Sof_crypto.Scheme.mock ~rng ~node_count:6 ())

let sign signer msg = Sof_crypto.Keyring.sign (Lazy.force keyring) ~signer msg

let verify ~signer ~msg ~signature =
  Sof_crypto.Keyring.verify (Lazy.force keyring) ~signer ~msg ~signature

let signed_cert ~seq ~digest ~signers =
  let payload = Recovery.cert_payload ~seq ~digest in
  {
    Checkpoint.cp_seq = seq;
    cp_digest = digest;
    cp_proof = List.map (fun s -> (s, sign s payload)) signers;
    cp_endorsement = None;
  }

let quorum_signed = Recovery.Quorum_signed { quorum = 3; member_ok = (fun s -> s >= 0 && s < 4) }

let test_verify_quorum_signed () =
  let ok = signed_cert ~seq:8 ~digest:"d" ~signers:[ 0; 1; 2 ] in
  Alcotest.(check bool) "2f+1 valid signatures accepted" true
    (Recovery.verify_cert ~verify ~scheme:quorum_signed ok);
  let short = signed_cert ~seq:8 ~digest:"d" ~signers:[ 0; 1 ] in
  Alcotest.(check bool) "too few signers rejected" false
    (Recovery.verify_cert ~verify ~scheme:quorum_signed short);
  let dup = signed_cert ~seq:8 ~digest:"d" ~signers:[ 0; 1; 1 ] in
  Alcotest.(check bool) "duplicate signer rejected" false
    (Recovery.verify_cert ~verify ~scheme:quorum_signed dup);
  let outsider = signed_cert ~seq:8 ~digest:"d" ~signers:[ 0; 1; 5 ] in
  Alcotest.(check bool) "non-member signer rejected" false
    (Recovery.verify_cert ~verify ~scheme:quorum_signed outsider);
  let bad_sig =
    { ok with Checkpoint.cp_proof = (0, "forged") :: List.tl ok.Checkpoint.cp_proof }
  in
  Alcotest.(check bool) "forged signature rejected" false
    (Recovery.verify_cert ~verify ~scheme:quorum_signed bad_sig);
  let zero = signed_cert ~seq:0 ~digest:"d" ~signers:[ 0; 1; 2 ] in
  Alcotest.(check bool) "sequence zero rejected" false
    (Recovery.verify_cert ~verify ~scheme:quorum_signed zero);
  (* A certificate over a different digest carries signatures that do not
     cover this payload. *)
  let wrong = { ok with Checkpoint.cp_digest = "other" } in
  Alcotest.(check bool) "digest mismatch rejected" false
    (Recovery.verify_cert ~verify ~scheme:quorum_signed wrong)

let test_verify_quorum_counted () =
  (* Crash-only model: claims are unsigned, distinct legitimate senders
     suffice. *)
  let scheme = Recovery.Quorum_counted { quorum = 2; member_ok = (fun s -> s < 4) } in
  let cert =
    { Checkpoint.cp_seq = 8; cp_digest = "d"; cp_proof = [ (0, ""); (3, "") ]; cp_endorsement = None }
  in
  Alcotest.(check bool) "f+1 distinct senders accepted" true
    (Recovery.verify_cert ~verify ~scheme cert);
  let dup = { cert with Checkpoint.cp_proof = [ (0, ""); (0, "") ] } in
  Alcotest.(check bool) "duplicate sender rejected" false
    (Recovery.verify_cert ~verify ~scheme dup)

let test_verify_pair_endorsed () =
  (* Pair (primary 0, shadow 1); unpaired candidate 4. *)
  let pair_ok ~primary ~endorser =
    match (primary, endorser) with
    | 0, Some 1 -> true
    | 4, None -> true
    | _ -> false
  in
  let scheme = Recovery.Pair_endorsed { pair_ok } in
  let seq = 8 and digest = "d" in
  let payload = Recovery.cert_payload ~seq ~digest in
  let body = P.Message.Checkpoint { seq; digest } in
  let first = sign 0 payload in
  let endorsed =
    {
      Checkpoint.cp_seq = seq;
      cp_digest = digest;
      cp_proof = [ (0, first) ];
      cp_endorsement = Some (1, sign 1 (P.Message.endorsement_payload body first));
    }
  in
  Alcotest.(check bool) "pair-endorsed accepted" true
    (Recovery.verify_cert ~verify ~scheme endorsed);
  let singleton =
    {
      Checkpoint.cp_seq = seq;
      cp_digest = digest;
      cp_proof = [ (4, sign 4 payload) ];
      cp_endorsement = None;
    }
  in
  Alcotest.(check bool) "unpaired candidate singleton accepted" true
    (Recovery.verify_cert ~verify ~scheme singleton);
  let unendorsed = { endorsed with Checkpoint.cp_endorsement = None } in
  Alcotest.(check bool) "paired primary without endorsement rejected" false
    (Recovery.verify_cert ~verify ~scheme unendorsed);
  let wrong_shadow =
    {
      endorsed with
      Checkpoint.cp_endorsement = Some (2, sign 2 (P.Message.endorsement_payload body first));
    }
  in
  Alcotest.(check bool) "endorsement from a non-shadow rejected" false
    (Recovery.verify_cert ~verify ~scheme wrong_shadow);
  let forged_endorsement =
    { endorsed with Checkpoint.cp_endorsement = Some (1, "forged") }
  in
  Alcotest.(check bool) "forged endorsement rejected" false
    (Recovery.verify_cert ~verify ~scheme forged_endorsement)

(* ------------------------------------------------- cluster-level runs *)

let count_events cluster pred =
  List.length (List.filter (fun (_, _, e) -> pred e) (Cluster.events cluster))

(* Crash one process mid-run, restart it, and require checkpointed state
   transfer to bring it back into agreement with the survivors. *)
let crash_restart_run ~kind ~faults ~crashed =
  let spec =
    {
      (Cluster.default_spec ~kind ~f:1) with
      Cluster.batching_interval = ms 50;
      pair_delay_estimate = sec 30;
      heartbeat_interval = sec 3600;
      checkpoint_interval = 4;
      faults;
    }
  in
  let cluster = Cluster.build spec in
  Workload.install cluster (Workload.make ~rate_per_sec:300.0 ()) ~duration:(sec 6);
  Cluster.run cluster ~until:(sec 2);
  Cluster.crash cluster crashed;
  Cluster.run cluster ~until:(sec 4);
  Cluster.restart cluster crashed;
  Cluster.run cluster ~until:(sec 8);
  cluster

let test_restart_recovers_via_state_transfer () =
  let cluster =
    crash_restart_run ~kind:Cluster.Bft_protocol ~faults:[] ~crashed:3
  in
  Alcotest.(check bool) "restart recorded" true
    (count_events cluster (function P.Context.Node_restarted -> true | _ -> false) >= 1);
  Alcotest.(check bool) "state transfer installed" true
    (count_events cluster (function
       | P.Context.State_transfer_installed _ -> true
       | _ -> false)
    >= 1);
  (* The restarted process resumes delivering after its comeback. *)
  let last_restart =
    List.fold_left
      (fun acc (at, who, e) ->
        match e with
        | P.Context.Node_restarted when who = 3 -> Some at
        | _ -> acc)
      None (Cluster.events cluster)
  in
  let restarted_at = Option.get last_restart in
  Alcotest.(check bool) "restarted process delivers again" true
    (List.exists
       (fun (at, who, e) ->
         who = 3
         && Simtime.compare at restarted_at > 0
         && match e with P.Context.Delivered _ -> true | _ -> false)
       (Cluster.events cluster));
  List.iter
    (fun r ->
      Alcotest.(check bool) ("invariant " ^ r.H.Invariants.name) true r.H.Invariants.pass)
    [
      H.Invariants.agreement cluster ~honest:[ 0; 1; 2; 3 ];
      H.Invariants.prefix_consistency cluster ~honest:[ 0; 1; 2; 3 ];
      H.Invariants.checkpoint_agreement cluster ~honest:[ 0; 1; 2; 3 ];
    ]

(* A Byzantine responder serves corrupt checkpoint images: every such offer
   must be rejected (the image digest does not match the certificate), and
   recovery must still complete from the honest responders. *)
let test_corrupt_checkpoint_image_rejected () =
  let cluster =
    crash_restart_run ~kind:Cluster.Bft_protocol
      ~faults:[ (1, P.Fault.Corrupt_checkpoint_image) ]
      ~crashed:3
  in
  Alcotest.(check bool) "corrupt offer rejected" true
    (count_events cluster (function
       | P.Context.State_transfer_rejected { from } -> from = 1
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "recovery still installs" true
    (count_events cluster (function
       | P.Context.State_transfer_installed _ -> true
       | _ -> false)
    >= 1);
  List.iter
    (fun r ->
      Alcotest.(check bool) ("invariant " ^ r.H.Invariants.name) true r.H.Invariants.pass)
    [
      H.Invariants.agreement cluster ~honest:[ 0; 2; 3 ];
      H.Invariants.checkpoint_agreement cluster ~honest:[ 0; 2; 3 ];
    ]

(* A stale responder serves its previous stable checkpoint with no log
   suffix: verifiably certified, just old.  The recovering process must end
   up at the freshest offer, not the stale one. *)
let test_stale_checkpoint_tolerated () =
  let cluster =
    crash_restart_run ~kind:Cluster.Bft_protocol
      ~faults:[ (1, P.Fault.Stale_checkpoint) ]
      ~crashed:3
  in
  Alcotest.(check bool) "recovery installs despite staleness" true
    (count_events cluster (function
       | P.Context.State_transfer_installed _ -> true
       | _ -> false)
    >= 1);
  List.iter
    (fun r ->
      Alcotest.(check bool) ("invariant " ^ r.H.Invariants.name) true r.H.Invariants.pass)
    [
      H.Invariants.agreement cluster ~honest:[ 0; 2; 3 ];
      H.Invariants.prefix_consistency cluster ~honest:[ 0; 2; 3 ];
    ]

(* Log truncation bounds memory: with checkpointing on, the retained order
   log never grows past a small multiple of the interval. *)
let test_truncation_bounds_log () =
  let spec =
    {
      (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) with
      Cluster.batching_interval = ms 20;
      pair_delay_estimate = sec 30;
      heartbeat_interval = sec 3600;
      checkpoint_interval = 4;
    }
  in
  let cluster = Cluster.build spec in
  Workload.install cluster (Workload.make ~rate_per_sec:400.0 ()) ~duration:(sec 6);
  Cluster.run cluster ~until:(sec 8);
  Alcotest.(check bool) "checkpoints stabilised" true
    (count_events cluster (function
       | P.Context.Checkpoint_stable _ -> true
       | _ -> false)
    >= 4);
  Alcotest.(check bool) "log truncated" true
    (count_events cluster (function P.Context.Log_truncated _ -> true | _ -> false) >= 4);
  for who = 0 to Cluster.process_count cluster - 1 do
    let len = Cluster.log_length cluster who in
    if len > 2 * 4 + 16 then
      Alcotest.failf "process %d retains %d log entries (bound %d)" who len (2 * 4 + 16);
    Alcotest.(check bool)
      (Printf.sprintf "process %d has a stable checkpoint" who)
      true
      (Cluster.stable_checkpoint_seq cluster who > 0)
  done

(* ------------------------------------------------------------ key marks *)

(* A log whose slots are just the key lists they order, delivered through
   the shared [Recovery.advance]. *)
let key_log ~interval =
  let delivered = ref [] in
  let ctx =
    {
      P.Context.id = 0;
      now = (fun () -> Simtime.zero);
      sign = (fun _ -> "");
      verify = (fun ~signer:_ ~msg:_ ~signature:_ -> true);
      sign_acc = (fun _ -> "");
      verify_acc = (fun ~signer:_ ~msg:_ ~signature:_ -> true);
      digest_charge = ignore;
      send = (fun ~dst:_ _ -> ());
      multicast = (fun ~dsts:_ _ -> ());
      set_timer = (fun ?kind:_ ~delay:_ _ -> P.Context.null_timer);
      deliver = (fun ~seq batch -> delivered := (seq, P.Batch.keys batch) :: !delivered);
      emit = ignore;
      snapshot = (fun () -> "");
      restore = ignore;
    }
  in
  let log = Recovery.create_log ~ctx ~f:1 ~digest:Sof_crypto.Digest_alg.MD5 ~interval in
  let hooks =
    {
      Recovery.log;
      timing = P.Timing.create ~mode:P.Config.Static ~initial:(ms 10) ~peers:1;
      scheme = Recovery.Quorum_counted { quorum = 1; member_ok = (fun _ -> true) };
      entry_quorum = 1;
      fault = P.Fault.Honest;
      retry_base = (fun () -> ms 10);
      committed_keys = (fun keys -> Some keys);
      keep_executed = false;
      settle_fresh_only = false;
      boundary = ignore;
      tail_entry = (fun _ _ -> None);
      admit = (fun _ -> false);
      sign = P.Context.make_signed ctx;
      send = (fun ~dst:_ _ -> ());
      multicast = ignore;
    }
  in
  (hooks, delivered)

let key n = { Request.client = 0; client_seq = n }

(* Order [keys] at sequence [o] with their bodies pooled, then deliver. *)
let order_and_deliver (h : Request.key list Recovery.hooks) ~o keys =
  let log = h.Recovery.log in
  List.iter
    (fun k ->
      Recovery.note_ordered log k;
      let r = Request.make ~client:k.Request.client ~client_seq:k.Request.client_seq ~op:"op" in
      log.Recovery.pending <- Request.Key_map.add k r log.Recovery.pending)
    keys;
  Hashtbl.replace log.Recovery.orders o keys;
  Recovery.advance h

let test_key_marks_truncate () =
  let h, delivered = key_log ~interval:2 in
  let log = h.Recovery.log in
  for o = 1 to 6 do
    order_and_deliver h ~o [ key o ]
  done;
  (* Ordered in slot 7, whose body never arrives: not delivered. *)
  Recovery.note_ordered log (key 9);
  Hashtbl.replace log.Recovery.orders 7 [ key 9 ];
  Alcotest.(check int) "delivered through 6" 6 log.Recovery.delivered;
  (* Truncating at 4 keeps one more interval of delivered keys: batches 1
     and 2 are dropped, 3 to 6 retained. *)
  Recovery.truncate log 4;
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "key %d no longer ordered" n) false
        (Recovery.key_ordered log (key n));
      Alcotest.(check bool) (Printf.sprintf "key %d no longer delivered" n) false
        (Recovery.key_delivered log (key n)))
    [ 1; 2 ];
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "key %d still ordered" n) true
        (Recovery.key_ordered log (key n));
      Alcotest.(check bool) (Printf.sprintf "key %d still delivered" n) true
        (Recovery.key_delivered log (key n)))
    [ 3; 4; 5; 6 ];
  Alcotest.(check bool) "undelivered key keeps its order mark" true
    (Recovery.key_ordered log (key 9));
  Alcotest.(check bool) "undelivered key not delivered" false
    (Recovery.key_delivered log (key 9));
  (* A coordinator installed late re-orders a retained delivered key next to
     a fresh one: only the fresh one is delivered again. *)
  Hashtbl.remove log.Recovery.orders 7;
  order_and_deliver h ~o:7 [ key 4; key 8 ];
  match !delivered with
  | (7, keys) :: _ ->
    Alcotest.(check int) "deduplicated batch" 1 (List.length keys);
    Alcotest.(check bool) "fresh key delivered" true
      (List.exists (fun k -> Request.compare_key k (key 8) = 0) keys)
  | _ -> Alcotest.fail "sequence 7 not delivered"

let suite =
  [
    ( "checkpoint",
      [
        Alcotest.test_case "cert codec roundtrip" `Quick test_cert_roundtrip;
        Alcotest.test_case "entry codec roundtrip" `Quick test_entry_roundtrip;
        Alcotest.test_case "image wrap/unwrap roundtrip" `Quick test_image_wrap_roundtrip;
        Alcotest.test_case "malformed image rejected" `Quick
          test_image_unwrap_rejects_malformed;
        Alcotest.test_case "image bytes canonical" `Quick test_image_canonical_bytes;
        Alcotest.test_case "boundary predicate" `Quick test_is_boundary;
        Alcotest.test_case "verify: quorum-signed" `Quick test_verify_quorum_signed;
        Alcotest.test_case "verify: quorum-counted" `Quick test_verify_quorum_counted;
        Alcotest.test_case "verify: pair-endorsed" `Quick test_verify_pair_endorsed;
        Alcotest.test_case "restart recovers via state transfer" `Slow
          test_restart_recovers_via_state_transfer;
        Alcotest.test_case "corrupt checkpoint image rejected" `Slow
          test_corrupt_checkpoint_image_rejected;
        Alcotest.test_case "stale checkpoint tolerated" `Slow
          test_stale_checkpoint_tolerated;
        Alcotest.test_case "truncation bounds the log" `Slow test_truncation_bounds_log;
        Alcotest.test_case "truncation drops both key marks" `Quick test_key_marks_truncate;
      ] );
  ]
