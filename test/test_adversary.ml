(* Adversary-layer tests: fault taxonomy, the no-forgery property under
   wire mutation, hostile-buffer decode fuzzing, and a scripted
   equivocating-coordinator campaign that must end in a value-domain
   fail-signal and a successor install. *)

module Simtime = Sof_sim.Simtime
module Engine = Sof_sim.Engine
module Rng = Sof_util.Rng
module P = Sof_protocol
module H = Sof_harness
module Cluster = H.Cluster
module Request = Sof_smr.Request
module Keyring = Sof_crypto.Keyring
module Scheme = Sof_crypto.Scheme

let sec = Simtime.sec
let ms = Simtime.ms

(* ---------------------------------------------------------------- Fault *)

let all_faults =
  [
    P.Fault.Honest;
    P.Fault.Corrupt_digest_at 3;
    P.Fault.Endorse_corrupt_at 4;
    P.Fault.Mute_at (sec 2);
    P.Fault.Drop_endorsements;
    P.Fault.Equivocate_at 5;
    P.Fault.Spurious_fail_signal_at (sec 1);
    P.Fault.Withhold_fail_signal;
    P.Fault.Unwilling_spam;
    P.Fault.Replay_stale 3;
    P.Fault.Corrupt_wire 8;
  ]

let test_fault_pp () =
  let render ft = Format.asprintf "%a" P.Fault.pp ft in
  let rendered = List.map render all_faults in
  List.iter
    (fun s -> Alcotest.(check bool) "non-empty" true (String.length s > 0))
    rendered;
  let distinct = List.sort_uniq compare rendered in
  Alcotest.(check int) "all variants render distinctly" (List.length all_faults)
    (List.length distinct);
  (* Parameters must show up, or two seeded faults become indistinguishable
     in a chaos report. *)
  Alcotest.(check bool) "equivocate shows seq" true
    (String.length (render (P.Fault.Equivocate_at 5))
    <> String.length (render (P.Fault.Equivocate_at 55)))

let test_fault_is_mute () =
  let mute ft ~at = P.Fault.is_mute ft ~now:at in
  Alcotest.(check bool) "honest never mute" false (mute P.Fault.Honest ~at:(sec 100));
  Alcotest.(check bool) "before the instant" false
    (mute (P.Fault.Mute_at (sec 2)) ~at:(ms 1999));
  Alcotest.(check bool) "at the instant" true
    (mute (P.Fault.Mute_at (sec 2)) ~at:(sec 2));
  Alcotest.(check bool) "after the instant" true
    (mute (P.Fault.Mute_at (sec 2)) ~at:(sec 9));
  List.iter
    (fun ft ->
      if ft <> P.Fault.Mute_at (sec 2) then
        Alcotest.(check bool)
          (Format.asprintf "%a not mute" P.Fault.pp ft)
          false (mute ft ~at:(sec 9)))
    all_faults

(* ------------------------------------------------- no-forgery property *)

(* Any single-bit mutation of a signed wire frame must be rejected: either
   the codec refuses it (Truncated) or the signature no longer verifies.
   This is the property the whole adversary layer leans on — corrupted or
   tampered traffic can never impersonate an honest sender. *)
let test_mutation_never_verifies () =
  let rng = Rng.create 0xadbeefL in
  let kr =
    Keyring.create ~scheme:Scheme.mock ~rng:(Rng.split rng) ~node_count:4 ()
  in
  let iterations = 500 in
  for i = 1 to iterations do
    let sender = Rng.int rng 4 in
    let info =
      {
        P.Message.o = 1 + Rng.int rng 1000;
        digest = String.init 16 (fun _ -> Char.chr (Rng.int rng 256));
        keys = [ { Request.client = Rng.int rng 4; client_seq = i } ];
      }
    in
    let body = P.Message.Order { c = 1 + Rng.int rng 3; info } in
    let signature = Keyring.sign kr ~signer:sender (P.Message.encode_body body) in
    let wire =
      P.Message.encode (P.Message.forge ~sender ~signature body)
    in
    let mutated = H.Adversary.corrupt_payload rng wire in
    Alcotest.(check bool) "mutation changed the frame" false (mutated = wire);
    let accepted =
      match P.Message.decode mutated with
      | env ->
        Keyring.verify kr ~signer:env.P.Message.sender
          ~msg:env.P.Message.body_bytes
          ~signature:env.P.Message.signature
      | exception Sof_util.Codec.Reader.Truncated -> false
    in
    Alcotest.(check bool) "mutated frame rejected" false accepted
  done

(* ------------------------------------------------------- decode fuzzing *)

let test_decode_fuzz () =
  let outcome = H.Fuzz.run ~seed:0xf00dL ~count:10_000 in
  Alcotest.(check bool)
    (Format.asprintf "%a" H.Fuzz.pp_outcome outcome)
    true (H.Fuzz.passed outcome);
  Alcotest.(check int) "three entry points per buffer" (3 * 10_000)
    outcome.H.Fuzz.runs

(* ----------------------------------- equivocating-coordinator campaign *)

(* Seeded end-to-end: p0 (pair-1 primary) equivocates on sequence 3.  The
   shadow p3 must raise a value-domain fail-signal, the cluster must install
   the next coordinator, and the run must stay safe for the honest
   processes. *)
let test_equivocation_campaign () =
  let spec =
    {
      (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) with
      Cluster.batching_interval = ms 50;
      pair_delay_estimate = ms 400;
      heartbeat_interval = ms 50;
      seed = 7L;
      faults = [ (0, P.Fault.Equivocate_at 3) ];
      use_channel = true;
    }
  in
  let cluster = Cluster.build spec in
  let engine = Cluster.engine cluster in
  let injected = ref Request.Key_set.empty in
  let rng = Rng.create 11L in
  for i = 1 to 40 do
    ignore
      (Engine.schedule_at engine ~at:(ms (25 * i)) (fun () ->
           let op =
             Sof_smr.Kv_store.encode_op
               (Sof_smr.Kv_store.Put (Printf.sprintf "k%d" (Rng.int rng 1000), "v"))
           in
           let req = Request.make ~client:(i mod 4) ~client_seq:i ~op in
           injected := Request.Key_set.add req.Request.key !injected;
           Cluster.inject_request cluster req))
  done;
  Cluster.run cluster ~until:(sec 4);
  let events = Cluster.events cluster in
  let shadow_signalled =
    List.exists
      (fun (_, who, ev) ->
        who = 3
        && ev = P.Context.Fail_signal_emitted { pair = 1; value_domain = true })
      events
  in
  Alcotest.(check bool) "shadow fail-signals the equivocator" true shadow_signalled;
  let installed =
    List.exists
      (fun (_, who, ev) ->
        who <> 0 && ev = P.Context.Coordinator_installed { rank = 2 })
      events
  in
  Alcotest.(check bool) "next coordinator installed" true installed;
  let honest = [ 1; 2; 3 ] in
  let results =
    [
      H.Invariants.agreement cluster ~honest;
      H.Invariants.prefix_consistency cluster ~honest;
      H.Invariants.validity cluster ~honest ~injected:!injected;
      H.Invariants.fail_signal_accountability cluster ~crashed:[] ~by:(sec 3);
      H.Invariants.coordinator_succession cluster ~crashed:[] ~by:(sec 3);
    ]
  in
  List.iter
    (fun (r : H.Invariants.result) ->
      Alcotest.(check bool) (r.name ^ ": " ^ r.detail) true r.pass)
    results

let suite =
  [
    ( "adversary",
      [
        Alcotest.test_case "fault pp" `Quick test_fault_pp;
        Alcotest.test_case "fault is_mute" `Quick test_fault_is_mute;
        Alcotest.test_case "mutated frames never verify" `Quick
          test_mutation_never_verifies;
        Alcotest.test_case "decode fuzz 10k" `Quick test_decode_fuzz;
        Alcotest.test_case "equivocation campaign" `Quick
          test_equivocation_campaign;
      ] );
  ]
