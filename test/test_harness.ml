module Simtime = Sof_sim.Simtime
module P = Sof_protocol
module H = Sof_harness
module Cluster = H.Cluster
module Cost_model = H.Cost_model

let sec = Simtime.sec
let ms = Simtime.ms

(* ----------------------------------------------------------- Cost_model *)

let test_cost_recv_scales_with_size () =
  let c = Cost_model.default in
  let small = Cost_model.recv_cost c ~backlog:Simtime.zero ~size:0 in
  let large = Cost_model.recv_cost c ~backlog:Simtime.zero ~size:10_000 in
  Alcotest.(check bool) "larger costs more" true (Simtime.compare large small > 0)

let test_cost_backlog_penalty_capped () =
  let c = Cost_model.default in
  let base = Cost_model.recv_cost c ~backlog:Simtime.zero ~size:100 in
  let insane = Cost_model.recv_cost c ~backlog:(sec 3600) ~size:100 in
  let ratio = Simtime.to_ms insane /. Simtime.to_ms base in
  Alcotest.(check bool) "capped at max factor" true
    (ratio <= Cost_model.max_penalty_factor +. 0.01);
  Alcotest.(check bool) "penalty applies" true (ratio > 1.5)

let test_cost_send () =
  let c = Cost_model.default in
  Alcotest.(check bool) "send has fixed part" true
    (Simtime.to_ns (Cost_model.send_cost c ~size:0) > 0)

(* ------------------------------------------------------------- Workload *)

let test_workload_rate () =
  let cluster = Cluster.build (Cluster.default_spec ~kind:Cluster.Ct_protocol ~f:1) in
  let count = ref 0 in
  (* Count injected requests via the reference process's pending growth by
     watching events?  Simpler: count deliveries are rate-bound; instead we
     check the generator's arrival count through the network stats of a
     protocol-free measure: requests do not traverse the network, so count
     deliveries of batches instead. *)
  ignore count;
  H.Workload.install cluster (H.Workload.make ~rate_per_sec:200.0 ()) ~duration:(sec 5);
  Cluster.run cluster ~until:(sec 7);
  let delivered =
    List.fold_left
      (fun acc (_, who, e) ->
        match e with
        | P.Context.Delivered { batch; _ } when who = 0 ->
          acc + P.Batch.request_count batch
        | _ -> acc)
      0 (Cluster.events cluster)
  in
  (* 200 req/s for 5 s = ~1000 requests; allow generous tolerance. *)
  if delivered < 800 || delivered > 1200 then
    Alcotest.failf "unexpected delivered count %d" delivered

let test_workload_rejects_bad_rate () =
  Alcotest.check_raises "rate 0" (Invalid_argument "Workload.make: rate must be positive")
    (fun () -> ignore (H.Workload.make ~rate_per_sec:0.0 ()))

let test_workload_request_size () =
  let rng = Sof_util.Rng.create 1L in
  let r = H.Workload.make_request rng ~client:0 ~client_seq:1 ~op_bytes:95 in
  let size = Sof_smr.Request.encoded_size r in
  if size < 80 || size > 110 then Alcotest.failf "op size off target: %d" size

(* -------------------------------------------------------------- Cluster *)

let test_cluster_determinism () =
  let run () =
    let spec =
      {
        (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) with
        Cluster.batching_interval = ms 50;
        seed = 99L;
      }
    in
    let cluster = Cluster.build spec in
    H.Workload.install cluster (H.Workload.make ~rate_per_sec:150.0 ()) ~duration:(sec 2);
    Cluster.run cluster ~until:(sec 3);
    List.map
      (fun (at, who, e) ->
        (Simtime.to_ns at, who, Format.asprintf "%a" P.Context.pp_event e))
      (Cluster.events cluster)
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same event count" (List.length a) (List.length b);
  List.iter2
    (fun (ta, wa, ea) (tb, wb, eb) ->
      if ta <> tb || wa <> wb || ea <> eb then
        Alcotest.failf "event mismatch: %d %d %s vs %d %d %s" ta wa ea tb wb eb)
    a b

let test_cluster_seed_sensitivity () =
  let run seed =
    let spec =
      { (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) with Cluster.seed } in
    let cluster = Cluster.build spec in
    H.Workload.install cluster (H.Workload.make ~rate_per_sec:150.0 ()) ~duration:(sec 2);
    Cluster.run cluster ~until:(sec 3);
    List.length (Cluster.events cluster)
  in
  (* Different seeds shift arrival times; event traces almost surely differ
     in length or content.  Only check it does not crash and produces
     work. *)
  Alcotest.(check bool) "both seeds progress" true (run 1L > 0 && run 2L > 0)

let test_cluster_process_counts () =
  let n kind f =
    Cluster.process_count (Cluster.build (Cluster.default_spec ~kind ~f))
  in
  Alcotest.(check int) "sc" 7 (n Cluster.Sc_protocol 2);
  Alcotest.(check int) "scr" 8 (n Cluster.Scr_protocol 2);
  Alcotest.(check int) "bft" 7 (n Cluster.Bft_protocol 2);
  Alcotest.(check int) "ct" 5 (n Cluster.Ct_protocol 2)

let test_cluster_real_crypto_roundtrip () =
  (* With real_crypto the wire signatures are genuine RSA; a short fail-free
     run must still commit. *)
  let spec =
    {
      (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) with
      Cluster.scheme =
        { Sof_crypto.Scheme.md5_rsa1024 with Sof_crypto.Scheme.mechanism = Sof_crypto.Scheme.Rsa 256 };
      real_crypto = true;
      batching_interval = ms 100;
    }
  in
  let cluster = Cluster.build spec in
  H.Workload.install cluster (H.Workload.make ~rate_per_sec:50.0 ()) ~duration:(sec 1);
  Cluster.run cluster ~until:(sec 2);
  let committed =
    List.exists
      (fun (_, _, e) -> match e with P.Context.Committed _ -> true | _ -> false)
      (Cluster.events cluster)
  in
  Alcotest.(check bool) "committed with real RSA" true committed

let test_cluster_mac_auth_commits () =
  (* Under [--auth mac] the quorum phases ride authenticator vectors; the
     run must still commit, and the trace must show HMAC work with the
     asymmetric counters reduced to the accountable bodies. *)
  let run auth =
    let spec =
      {
        (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) with
        Cluster.auth;
        batching_interval = ms 100;
      }
    in
    let cluster = Cluster.build spec in
    H.Workload.install cluster (H.Workload.make ~rate_per_sec:100.0 ()) ~duration:(sec 2);
    Cluster.run cluster ~until:(sec 3);
    let committed =
      List.exists
        (fun (_, _, e) -> match e with P.Context.Committed _ -> true | _ -> false)
        (Cluster.events cluster)
    in
    (committed, Cluster.total_crypto_counts cluster)
  in
  let committed_mac, mac = run Sof_crypto.Keyring.Mac in
  let committed_sign, signed = run Sof_crypto.Keyring.Sign in
  Alcotest.(check bool) "mac mode commits" true committed_mac;
  Alcotest.(check bool) "sign mode commits" true committed_sign;
  Alcotest.(check bool) "mac mode computes hmacs" true (mac.H.Trace.hmacs > 0);
  Alcotest.(check bool) "sign mode computes none" true (signed.H.Trace.hmacs = 0);
  Alcotest.(check bool) "mac mode needs fewer asymmetric verifies" true
    (mac.H.Trace.verifies < signed.H.Trace.verifies)

let test_cluster_amortized_verify_cache () =
  (* State transfer re-presents the same checkpoint certificate from every
     responder; with [amortize_verify] the repeat verifications must be
     served from the cache instead of burning simulated CPU again. *)
  let spec =
    {
      (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) with
      Cluster.batching_interval = ms 100;
      checkpoint_interval = 4;
      amortize_verify = true;
    }
  in
  let cluster = Cluster.build spec in
  H.Workload.install cluster (H.Workload.make ~rate_per_sec:150.0 ()) ~duration:(sec 5);
  Cluster.run cluster ~until:(sec 2);
  let victim = Cluster.process_count cluster - 1 in
  Cluster.crash cluster victim;
  Cluster.run cluster ~until:(sec 3);
  Cluster.restart cluster victim;
  Cluster.run cluster ~until:(sec 6);
  Alcotest.(check bool) "restarted process caught up" true
    (Cluster.delivered_seq cluster victim > 0);
  let totals = Cluster.total_crypto_counts cluster in
  Alcotest.(check bool) "verify cache hit at least once" true
    (totals.H.Trace.verify_cached > 0)

(* One multicast to the n - 1 other processes is decoded once, and every
   receiver's payload maps to the one envelope the memo holds.  A copy the
   wire adversary corrupted is decoded on its own and does not verify; a
   payload that does not decode is decoded afresh every time it arrives. *)
let test_cluster_envelope_memo () =
  let corrupter = 1 in
  let cluster =
    Cluster.build
      {
        (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:2) with
        Cluster.heartbeat_interval = sec 3600;
        faults = [ (corrupter, P.Fault.Corrupt_wire 1) ];
      }
  in
  let n = Cluster.process_count cluster in
  let net = Cluster.network cluster in
  let received = ref [] in
  Sof_net.Network.on_deliver net (fun ~src:_ ~dst ~payload ->
      received := (dst, payload) :: !received);
  let keyring =
    Sof_crypto.Keyring.create ~scheme:Sof_crypto.Scheme.mock
      ~rng:(Sof_util.Rng.create 5L) ~node_count:n ()
  in
  let verifies env = P.Message.verify ~verify:(Sof_crypto.Keyring.verify keyring) env in
  let env =
    P.Message.sign ~sender:0 ~sign:(Sof_crypto.Keyring.sign keyring ~signer:0)
      (P.Message.Ack { c = 0; o = 1; digest = String.make 16 'd' })
  in
  let payload = P.Message.encode env in
  let counts () = (snd (Cluster.codec_counts cluster), Cluster.envelope_decodes cluster) in
  let deliver f =
    received := [];
    let at = Simtime.add (Sof_sim.Engine.now (Cluster.engine cluster)) (ms 100) in
    let before = counts () in
    f ();
    Cluster.run cluster ~until:at;
    let got, decoded = counts () in
    (got - fst before, decoded - snd before, List.rev !received)
  in
  Cluster.run cluster ~until:(ms 10);
  let got, decoded, copies =
    deliver (fun () ->
        Sof_net.Network.multicast net ~src:0 ~dsts:(List.init (n - 1) succ) payload)
  in
  Alcotest.(check int) "every other process received it" (n - 1) got;
  Alcotest.(check int) "decoded once" 1 decoded;
  Alcotest.(check int) "copies observed" (n - 1) (List.length copies);
  let decodes = Cluster.envelope_decodes cluster in
  let held = Cluster.envelope cluster payload in
  Alcotest.(check bool) "held envelope verifies" true (verifies held);
  List.iter
    (fun (dst, p) ->
      Alcotest.(check bool)
        (Printf.sprintf "receiver %d shares the envelope" dst)
        true
        (Cluster.envelope cluster p == held))
    copies;
  Alcotest.(check int) "lookups decode nothing" decodes (Cluster.envelope_decodes cluster);
  (* The corrupter's copy is a fresh string of the same length. *)
  let got, decoded, copies =
    deliver (fun () -> Sof_net.Network.send net ~src:corrupter ~dst:2 payload)
  in
  Alcotest.(check int) "corrupted copy received" 1 got;
  Alcotest.(check int) "corrupted copy decoded on its own" 1 decoded;
  (match copies with
  | [ (_, p) ] -> (
    Alcotest.(check bool) "copy was corrupted" false (String.equal p payload);
    match Cluster.envelope cluster p with
    | env' ->
      Alcotest.(check bool) "not the held envelope" true (env' != held);
      Alcotest.(check bool) "corrupted copy rejected" false (verifies env')
    | exception Sof_util.Codec.Reader.Truncated -> ())
  | _ -> Alcotest.fail "expected one corrupted copy");
  Alcotest.(check bool) "honest envelope still held" true (Cluster.envelope cluster payload == held);
  (* A payload that does not decode is never held. *)
  let cut = String.sub payload 0 (String.length payload - 1) in
  List.iter
    (fun label ->
      let got, decoded, _ = deliver (fun () -> Sof_net.Network.send net ~src:0 ~dst:3 cut) in
      Alcotest.(check (pair int int)) label (1, 1) (got, decoded))
    [ "truncated payload decoded"; "truncated payload decoded again" ]

(* -------------------------------------------------------------- Metrics *)

let test_metrics_latency_positive_and_bounded () =
  let spec =
    {
      (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) with
      Cluster.batching_interval = ms 100;
    }
  in
  let cluster = Cluster.build spec in
  H.Workload.install cluster (H.Workload.make ~rate_per_sec:100.0 ()) ~duration:(sec 4);
  Cluster.run cluster ~until:(sec 5);
  let p = H.Metrics.analyze cluster ~warmup:(sec 1) ~window:(sec 3) in
  Alcotest.(check bool) "throughput > 0" true (p.H.Metrics.throughput_rps > 0.0);
  Alcotest.(check bool) "batches counted" true (p.H.Metrics.batches > 0);
  match p.H.Metrics.latency with
  | None -> Alcotest.fail "no latency"
  | Some l ->
    Alcotest.(check bool) "positive" true (l.Sof_util.Statistics.min > 0.0);
    Alcotest.(check bool) "p95 >= p50" true
      (l.Sof_util.Statistics.p95 >= l.Sof_util.Statistics.p50)

let test_metrics_no_failover_in_failfree () =
  let cluster = Cluster.build (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) in
  H.Workload.install cluster (H.Workload.make ~rate_per_sec:50.0 ()) ~duration:(sec 1);
  Cluster.run cluster ~until:(sec 2);
  let p = H.Metrics.analyze cluster ~warmup:Simtime.zero ~window:(sec 2) in
  Alcotest.(check (option (float 0.1))) "no failover" None p.H.Metrics.failover_ms

let test_cluster_reply_certificate () =
  let cluster = Cluster.build (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) in
  let op = Sof_smr.Kv_store.(encode_op (Put ("k", "v"))) in
  let req = Sof_smr.Request.make ~client:0 ~client_seq:1 ~op in
  Cluster.inject_request cluster req;
  Cluster.run cluster ~until:(sec 1);
  let replies = Cluster.replies_for cluster req.Sof_smr.Request.key in
  Alcotest.(check bool) "several replicas replied" true (List.length replies >= 2);
  (match Cluster.reply_certificate cluster req.Sof_smr.Request.key with
  | None -> Alcotest.fail "no f+1 certificate"
  | Some reply ->
    Alcotest.(check bool) "reply is Ok" true
      (Sof_smr.Kv_store.decode_reply reply = Sof_smr.Kv_store.Ok))

(* ---------------------------------------------------------- Experiments *)

let test_experiments_single_point () =
  let series =
    H.Experiments.fig4_5 ~f:1 ~intervals_ms:[ 200 ] ~rate:100.0
      ~scheme:Sof_crypto.Scheme.mock ()
  in
  Alcotest.(check int) "three protocols" 3 (List.length series);
  List.iter
    (fun s ->
      match s.H.Experiments.points with
      | [ p ] ->
        Alcotest.(check bool)
          (s.H.Experiments.label ^ " has latency")
          true
          (p.H.Experiments.latency_ms <> None);
        Alcotest.(check bool)
          (s.H.Experiments.label ^ " throughput")
          true
          (p.H.Experiments.throughput_rps > 0.0)
      | _ -> Alcotest.fail "expected one point")
    series

let test_experiments_failover_point () =
  let series =
    H.Experiments.fig6 ~f:2 ~targets:[ 10 ] ~scheme:Sof_crypto.Scheme.mock ()
  in
  Alcotest.(check int) "SC and SCR" 2 (List.length series);
  List.iter
    (fun s ->
      match s.H.Experiments.fo_points with
      | [ p ] ->
        Alcotest.(check bool) "failover positive" true (p.H.Experiments.failover_ms > 0.0);
        Alcotest.(check bool) "backlog measured" true (p.H.Experiments.backlog_bytes > 0)
      | _ -> Alcotest.fail "expected one point")
    series

let test_experiments_message_overhead_ordering () =
  let rows = H.Experiments.message_counts ~f:2 () in
  let get label =
    match List.find_opt (fun (l, _, _) -> l = label) rows with
    | Some (_, m, _) -> m
    | None -> Alcotest.failf "missing row %s" label
  in
  (* The paper's claim: SC has smaller message overhead than BFT; CT smallest. *)
  Alcotest.(check bool) "CT < SC" true (get "CT" < get "SC");
  Alcotest.(check bool) "SC < BFT" true (get "SC" < get "BFT")

(* The two ablations, pinned to the rows they printed when the paper's
   evaluation had its own runner. *)
let test_experiments_ablation_rows () =
  let dumb = H.Experiments.dumb_process_ablation () in
  Alcotest.(check (list (triple bool int string)))
    "dumb-process rows"
    [ (true, 8703, "240.8"); (false, 11181, "240.8") ]
    (List.map
       (fun (p : H.Experiments.dumb_point) ->
         ( p.H.Experiments.dp_optimised,
           p.H.Experiments.dp_messages,
           Printf.sprintf "%.1f" p.H.Experiments.dp_throughput_rps ))
       dumb);
  let pair_link = H.Experiments.pair_link_ablation () in
  Alcotest.(check (list (pair int (option string))))
    "pair-link rows"
    [ (0, Some "37.41"); (2, Some "39.18"); (5, Some "41.68"); (10, Some "45.83") ]
    (List.map
       (fun (p : H.Experiments.pair_link_point) ->
         ( p.H.Experiments.pl_delay_ms,
           Option.map (Printf.sprintf "%.2f") p.H.Experiments.pl_latency_ms ))
       pair_link);
  List.iter
    (fun (name, pass) -> Alcotest.(check bool) name true pass)
    (H.Bench_doc.ablation_verdicts ~dumb_process:dumb ~pair_link)

(* A reduced sha1-dsa1024 sweep where BFT saturates at one of the three
   largest intervals (100 ms) and SC does not: the saturated point must
   count as worse than any latency, not drop out of BFT's mean. *)
let test_shape_checks_count_saturation () =
  let series label points =
    {
      H.Experiments.label;
      points =
        List.map
          (fun (interval, latency_ms, throughput_rps) ->
            {
              H.Experiments.batching_interval_ms = interval;
              latency_ms;
              throughput_rps;
            })
          points;
    }
  in
  let rows =
    [
      series "CT"
        [
          (40.0, Some 6.7, 300.0);
          (100.0, Some 6.5, 121.0);
          (200.0, Some 6.4, 60.0);
          (500.0, Some 5.9, 25.0);
        ];
      series "SC"
        [
          (40.0, None, 33.0);
          (100.0, Some 5535.2, 39.0);
          (200.0, Some 91.4, 63.0);
          (500.0, Some 69.3, 26.0);
        ];
      series "BFT"
        [
          (40.0, None, 11.0);
          (100.0, None, 18.0);
          (200.0, Some 3520.1, 27.0);
          (500.0, Some 135.2, 25.0);
        ];
    ]
  in
  Alcotest.(check (list (pair string bool)))
    "shape checks"
    [
      ("steady-state latency: CT < SC", true);
      ("steady-state latency: SC < BFT", true);
      ("small intervals push SC/BFT toward saturation", true);
      ("throughput grows as the interval shrinks (SC)", true);
    ]
    (H.Report.shape_check_results rows)

let suite =
  [
    ( "harness.cost_model",
      [
        Alcotest.test_case "recv scales" `Quick test_cost_recv_scales_with_size;
        Alcotest.test_case "penalty capped" `Quick test_cost_backlog_penalty_capped;
        Alcotest.test_case "send" `Quick test_cost_send;
      ] );
    ( "harness.workload",
      [
        Alcotest.test_case "rate" `Quick test_workload_rate;
        Alcotest.test_case "bad rate" `Quick test_workload_rejects_bad_rate;
        Alcotest.test_case "request size" `Quick test_workload_request_size;
      ] );
    ( "harness.cluster",
      [
        Alcotest.test_case "determinism" `Quick test_cluster_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_cluster_seed_sensitivity;
        Alcotest.test_case "process counts" `Quick test_cluster_process_counts;
        Alcotest.test_case "real crypto end-to-end" `Slow test_cluster_real_crypto_roundtrip;
        Alcotest.test_case "mac auth end-to-end" `Quick test_cluster_mac_auth_commits;
        Alcotest.test_case "amortized verify cache" `Quick
          test_cluster_amortized_verify_cache;
        Alcotest.test_case "reply certificate" `Quick test_cluster_reply_certificate;
        Alcotest.test_case "envelope memo" `Quick test_cluster_envelope_memo;
      ] );
    ( "harness.metrics",
      [
        Alcotest.test_case "latency sane" `Quick test_metrics_latency_positive_and_bounded;
        Alcotest.test_case "no failover fail-free" `Quick test_metrics_no_failover_in_failfree;
      ] );
    ( "harness.experiments",
      [
        Alcotest.test_case "fig4/5 point" `Slow test_experiments_single_point;
        Alcotest.test_case "fig6 point" `Slow test_experiments_failover_point;
        Alcotest.test_case "message overhead ordering" `Slow
          test_experiments_message_overhead_ordering;
        Alcotest.test_case "ablation rows" `Slow test_experiments_ablation_rows;
      ] );
    ( "harness.report",
      [
        Alcotest.test_case "shape checks count saturated points" `Quick
          test_shape_checks_count_saturation;
      ] );
  ]
