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
   the shared [Recovery.advance]; [delivered] collects the [Delivered]
   events, newest first. *)
let key_log ?(emit = ignore) ~interval () =
  let delivered = ref [] in
  let emit ev =
    (match ev with
    | P.Context.Delivered { seq; batch } -> delivered := (seq, P.Batch.keys batch) :: !delivered
    | _ -> ());
    emit ev
  in
  let ctx = Bare.context ~emit ~id:0 () in
  let log =
    Recovery.create_log ~ctx ~service:(Bare.service ()) ~f:1 ~digest:Sof_crypto.Digest_alg.MD5
      ~interval
  in
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
  let h, delivered = key_log ~interval:2 () in
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

(* ---------------------------------------------------------- trace spans *)

(* A log whose context records what it emits; [take] returns the events
   since the last call, printed. *)
let span_log () =
  let emitted = ref [] in
  let h, _ = key_log ~emit:(fun e -> emitted := e :: !emitted) ~interval:2 () in
  let take () =
    let events = List.rev !emitted in
    emitted := [];
    List.map (Format.asprintf "%a" P.Context.pp_event) events
  in
  (h.Recovery.log, take)

let expect take what expected = Alcotest.(check (list string)) what expected (take ())

let test_span_open_close_once () =
  let log, take = span_log () in
  Recovery.span_open log P.Context.Order_phase 3;
  expect take "batch-scoped open with no batch span" [];
  Recovery.span_open log P.Context.Batch_phase 3;
  Recovery.span_open log P.Context.Batch_phase 3;
  Recovery.span_open log P.Context.Order_phase 3;
  Recovery.span_open log P.Context.Order_phase 3;
  expect take "repeated opens" [ "span_open(batch, 3)"; "span_open(order, 3)" ];
  Recovery.span_close log P.Context.Order_phase 3;
  Recovery.span_close log P.Context.Order_phase 3;
  Recovery.span_close log P.Context.Ack_phase 3;
  expect take "closing a closed span" [ "span_close(order, 3)" ];
  Recovery.open_span log P.Context.Failover_phase 1;
  Recovery.open_span log P.Context.Failover_phase 2;
  Recovery.close_span log P.Context.Failover_phase;
  Recovery.close_span log P.Context.Failover_phase;
  expect take "one-at-a-time phase keeps its first key"
    [ "span_open(failover, 1)"; "span_close(failover, 1)" ]

let test_span_commit_order () =
  let log, take = span_log () in
  Recovery.span_open log P.Context.Batch_phase 5;
  List.iter
    (fun phase -> Recovery.span_open log phase 5)
    [ P.Context.Commit_phase; P.Context.Ack_phase; P.Context.Endorse_phase ];
  ignore (take ());
  Recovery.close_batch_spans log 5;
  expect take "all_phases order, then the batch"
    [ "span_close(endorse, 5)"; "span_close(ack, 5)"; "span_close(commit, 5)";
      "span_close(batch, 5)" ];
  Recovery.close_batch_spans log 5;
  expect take "nothing left open" []

let test_span_truncate () =
  let log, take = span_log () in
  Recovery.span_open log P.Context.Batch_phase 2;
  Recovery.span_open log P.Context.Prepare_phase 2;
  Recovery.span_open log P.Context.Batch_phase 8;
  Recovery.span_open log P.Context.Batch_phase 9;
  Recovery.open_span log P.Context.View_change_phase 2;
  ignore (take ());
  Recovery.truncate log 8;
  expect take "truncation emits no span event" [ "log_truncated(upto=8, retained=0)" ];
  Recovery.span_close log P.Context.Prepare_phase 2;
  Recovery.span_close log P.Context.Batch_phase 2;
  Recovery.span_close log P.Context.Batch_phase 8;
  expect take "batch spans at or below the cut forgotten" [];
  Recovery.close_span log P.Context.View_change_phase;
  Recovery.span_close log P.Context.Batch_phase 9;
  expect take "view-change span at v=2 and the batch above the cut kept"
    [ "span_close(view_change, 2)"; "span_close(batch, 9)" ]

(* ---------------------------------------------------------- image memo *)

module Images = Checkpoint.Images
module Digest_alg = Sof_crypto.Digest_alg

let algs = Digest_alg.[ MD5; SHA1; SHA256 ]

let image_of n len = String.init len (fun i -> Char.chr (((n * 31) + (i * 7)) land 0xff))

(* Every answer is the image's own digest, and the image handed back equals
   the one asked about. *)
let check_answer m alg image =
  let image', digest = Images.digest m alg image in
  Alcotest.(check string) "image bytes kept" image image';
  Alcotest.(check string)
    (Printf.sprintf "%s digest of a %d B image" (Digest_alg.name alg) (String.length image))
    (Checkpoint.image_digest alg image) digest;
  image'

let test_memo_repeated () =
  List.iter
    (fun alg ->
      let m = Images.create () in
      let first = check_answer m alg (image_of 1 4096) in
      (* A fresh string with the same bytes, as the next replica wraps it. *)
      let again = check_answer m alg (image_of 1 4096) in
      Alcotest.(check bool) "a repeated image is the held string" true (first == again);
      Alcotest.(check int) "a repeated image is hashed once" 1 (Images.computed m);
      Alcotest.(check int) "both asks counted" 2 (Images.asked m))
    algs

let test_memo_one_byte_apart () =
  List.iter
    (fun alg ->
      let m = Images.create () in
      let a = image_of 2 1000 in
      let b = Bytes.of_string a in
      Bytes.set b 999 (Char.chr (Char.code a.[999] lxor 1));
      let b = Bytes.to_string b in
      ignore (check_answer m alg a);
      ignore (check_answer m alg b);
      ignore (check_answer m alg (Recovery.flip_first_byte a));
      ignore (check_answer m alg a);
      Alcotest.(check int) "three distinct images, three hashes" 3 (Images.computed m))
    algs

(* One image under every algorithm: the algorithm is part of the key. *)
let test_memo_per_algorithm () =
  let m = Images.create () in
  let image = image_of 3 512 in
  List.iter (fun alg -> ignore (check_answer m alg image)) algs;
  List.iter (fun alg -> ignore (check_answer m alg image)) algs;
  Alcotest.(check int) "one hash per algorithm" (List.length algs) (Images.computed m)

let test_memo_bound () =
  let m = Images.create () in
  for n = 1 to 3 * Checkpoint.image_window do
    ignore (check_answer m Digest_alg.SHA256 (image_of n 256));
    if Images.length m > Checkpoint.image_window then
      Alcotest.failf "the memo holds %d images (bound %d)" (Images.length m)
        Checkpoint.image_window
  done;
  Alcotest.(check int) "full" Checkpoint.image_window (Images.length m);
  let computed = Images.computed m in
  ignore (check_answer m Digest_alg.SHA256 (image_of (3 * Checkpoint.image_window) 256));
  Alcotest.(check int) "the latest image is held" computed (Images.computed m);
  ignore (check_answer m Digest_alg.SHA256 (image_of 1 256));
  Alcotest.(check int) "the oldest was let go" (computed + 1) (Images.computed m)

(* A wrap is [wrap_image]'s bytes; the replicas of one boundary get one
   string between them, and a state one byte apart or other marks miss.
   A wrap is not a digest. *)
let test_memo_wrap () =
  let m = Images.create () in
  let state = image_of 4 3000 in
  let marks = [ (1, 7); (2, 3) ] in
  let wrap state marks =
    let image = Images.wrap m ~state ~marks in
    Alcotest.(check string) "the wrapped bytes" (Checkpoint.wrap_image ~state ~marks) image;
    image
  in
  let first = wrap state marks in
  Alcotest.(check bool) "an equal state and marks share the string" true
    (first == wrap (String.init 3000 (fun i -> state.[i])) [ (1, 7); (2, 3) ]);
  Alcotest.(check bool) "other marks miss" false (first == wrap state [ (1, 7); (2, 4) ]);
  Alcotest.(check bool) "a state one byte apart misses" false
    (first == wrap (Recovery.flip_first_byte state) marks);
  Alcotest.(check int) "no digest asked" 0 (Images.asked m)

(* A corrupt offer while the memo holds the genuine image: the offered bytes
   miss, are hashed, fail the certified digest and are rejected; the
   genuine offer then installs the memo's own copy. *)
let test_memo_corrupt_offer_rejected () =
  let events = ref [] in
  let h, _ = key_log ~emit:(fun e -> events := e :: !events) ~interval:4 () in
  let log = h.Recovery.log in
  let m = log.Recovery.ctx.P.Context.images in
  let genuine = Checkpoint.wrap_image ~state:"service state" ~marks:[ (0, 3) ] in
  let held, digest = Images.digest m log.Recovery.digest genuine in
  let cert =
    { Checkpoint.cp_seq = 4; cp_digest = digest; cp_proof = [ (1, "") ]; cp_endorsement = None }
  in
  let rejected () =
    List.length
      (List.filter
         (function P.Context.State_transfer_rejected { from } -> from = 1 | _ -> false)
         !events)
  in
  Recovery.request_recovery h;
  Recovery.handle_state_response h ~src:1 ~cert:(Some cert)
    ~image:(Recovery.flip_first_byte genuine) ~entries:[];
  Alcotest.(check int) "corrupt offer rejected" 1 (rejected ());
  Alcotest.(check int) "nothing installed" 0 log.Recovery.delivered;
  Recovery.handle_state_response h ~src:1 ~cert:(Some cert)
    ~image:(Checkpoint.wrap_image ~state:"service state" ~marks:[ (0, 3) ])
    ~entries:[];
  Alcotest.(check int) "genuine offer accepted" 1 (rejected ());
  Alcotest.(check int) "installed at the certified boundary" 4 log.Recovery.delivered;
  match Recovery.image_at log.Recovery.rcv ~seq:4 with
  | Some (image, kept) ->
    Alcotest.(check bool) "the installed image is the memo's copy" true (image == held);
    Alcotest.(check string) "kept digest" digest kept
  | None -> Alcotest.fail "no image kept at the installed boundary"

(* ---------------------------------------------------------- batch memo *)

let batch_of n = P.Batch.make [ Request.make ~client:n ~client_seq:1 ~op:(image_of n 64) ]

(* The batch memo answers like [Batch.digest]; the same bytes under another
   algorithm, and bytes one flip apart, are other entries. *)
let test_batch_memo_exact () =
  let m = Images.create ~window:Checkpoint.batch_window () in
  let bytes = P.Batch.encode (batch_of 1) in
  List.iter
    (fun alg ->
      Alcotest.(check string)
        (Digest_alg.name alg ^ " digest of a batch")
        (P.Batch.digest alg (batch_of 1)) (Images.hash m alg bytes))
    algs;
  Alcotest.(check int) "one hash per algorithm" (List.length algs) (Images.computed m);
  let flipped = Recovery.flip_first_byte bytes in
  Alcotest.(check string) "a flipped byte is hashed afresh"
    (Digest_alg.digest Digest_alg.SHA256 flipped)
    (Images.hash m Digest_alg.SHA256 flipped);
  Alcotest.(check int) "the flip missed" (List.length algs + 1) (Images.computed m);
  ignore (Images.hash m Digest_alg.SHA256 (P.Batch.encode (batch_of 1)));
  Alcotest.(check int) "fresh bytes equal to a held entry hit" (List.length algs + 1)
    (Images.computed m);
  Alcotest.(check int) "every ask counted" (List.length algs + 2) (Images.asked m)

let test_batch_memo_window () =
  let window = Checkpoint.batch_window in
  let m = Images.create ~window () in
  let ask n = ignore (Images.hash m Digest_alg.SHA256 (P.Batch.encode (batch_of n))) in
  for n = 1 to window + 1 do
    ask n
  done;
  Alcotest.(check int) "held at most the window" window (Images.length m);
  ask (window + 1);
  ask 2;
  Alcotest.(check int) "the window's batches hit" (window + 1) (Images.computed m);
  ask 1;
  Alcotest.(check int) "the oldest was let go" (window + 2) (Images.computed m)

(* A fail-free durable SC f = 1 run with checkpoints: the coordinator mints,
   its shadow validates and all four replicas log each batch, but the
   cluster hashes each distinct delivered batch once. *)
let test_batch_memo_cluster () =
  let c =
    Cluster.build
      {
        (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) with
        Cluster.batching_interval = ms 20;
        checkpoint_interval = 8;
        durable = true;
      }
  in
  Workload.install c (Workload.make ~rate_per_sec:300.0 ()) ~duration:(sec 2);
  Cluster.run c ~until:(sec 3);
  let distinct = Hashtbl.create 256 and deliveries = ref 0 in
  List.iter
    (function
      | _, _, P.Context.Delivered { batch; _ } ->
        incr deliveries;
        Hashtbl.replace distinct (P.Batch.encode batch) ()
      | _ -> ())
    (Cluster.events c);
  let m = Cluster.batches c in
  Alcotest.(check bool) "batches were delivered" true (Hashtbl.length distinct > 20);
  Alcotest.(check int) "each distinct batch hashed once" (Hashtbl.length distinct)
    (Images.computed m);
  Alcotest.(check bool)
    (Printf.sprintf "every delivery asked (%d asks, %d deliveries)" (Images.asked m) !deliveries)
    true
    (Images.asked m >= !deliveries)

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
        Alcotest.test_case "spans open and close once" `Quick test_span_open_close_once;
        Alcotest.test_case "commit closes spans in phase order" `Quick test_span_commit_order;
        Alcotest.test_case "truncation forgets batch spans only" `Quick test_span_truncate;
        Alcotest.test_case "image memo: repeated images" `Quick test_memo_repeated;
        Alcotest.test_case "image memo: images one byte apart" `Quick test_memo_one_byte_apart;
        Alcotest.test_case "image memo: per digest algorithm" `Quick test_memo_per_algorithm;
        Alcotest.test_case "image memo: bounded" `Quick test_memo_bound;
        Alcotest.test_case "image memo: one wrap per boundary" `Quick test_memo_wrap;
        Alcotest.test_case "image memo: corrupt offer still rejected" `Quick
          test_memo_corrupt_offer_rejected;
        Alcotest.test_case "batch memo: exact" `Quick test_batch_memo_exact;
        Alcotest.test_case "batch memo: bounded by its window" `Quick test_batch_memo_window;
        Alcotest.test_case "batch memo: one hash per delivered batch" `Slow
          test_batch_memo_cluster;
      ] );
  ]
