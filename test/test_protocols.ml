(* End-to-end protocol tests: whole clusters under the simulator, driven by
   synthetic clients, checked for the state-machine-replication properties
   (agreement, total order, validity) and for the paper's failure-handling
   behaviours. *)

module Simtime = Sof_sim.Simtime
module P = Sof_protocol
module H = Sof_harness
module Cluster = H.Cluster
module Workload = H.Workload

let ms = Simtime.ms
let sec = Simtime.sec

(* Delivered request-key sequences per process, in delivery order. *)
let delivered_sequences cluster =
  let n = Cluster.process_count cluster in
  let seqs = Array.make n [] in
  List.iter
    (fun (_, who, event) ->
      match event with
      | P.Context.Delivered { batch; _ } ->
        seqs.(who) <- List.rev_append (List.map (fun r -> r.Sof_smr.Request.key) batch.P.Batch.requests) seqs.(who)
      | _ -> ())
    (Cluster.events cluster);
  Array.map List.rev seqs

let is_prefix a b =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' -> x = y && go a' b'
  in
  go a b

(* Agreement + total order: every pair of processes delivered consistent
   prefixes. *)
let check_total_order cluster =
  let seqs = delivered_sequences cluster in
  Array.iteri
    (fun i si ->
      Array.iteri
        (fun j sj ->
          if i < j && not (is_prefix si sj || is_prefix sj si) then
            Alcotest.failf "processes %d and %d delivered divergent sequences" i j)
        seqs)
    seqs;
  seqs

let count_events cluster pred =
  List.length (List.filter (fun (_, _, e) -> pred e) (Cluster.events cluster))

let min_delivered seqs ids = List.fold_left (fun acc i -> min acc (List.length seqs.(i))) max_int ids

let run_workload ?(rate = 300.0) ?(duration = sec 3) cluster =
  Workload.install cluster (Workload.make ~rate_per_sec:rate ()) ~duration;
  Cluster.run cluster ~until:(Simtime.add duration (sec 2))

(* --------------------------------------------------------------- SC *)

let sc_spec ?(f = 1) ?(interval = ms 50) ?(faults = []) () =
  {
    (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f) with
    Cluster.batching_interval = interval;
    pair_delay_estimate = ms 40;
    heartbeat_interval = ms 20;
    faults;
  }

let test_sc_failfree_commits () =
  let cluster = Cluster.build (sc_spec ()) in
  run_workload cluster;
  let seqs = check_total_order cluster in
  (* Every correct process delivers; nothing fail-signals. *)
  Alcotest.(check bool) "delivered plenty" true (min_delivered seqs [ 0; 1; 2; 3 ] > 100);
  Alcotest.(check int) "no fail signals" 0
    (count_events cluster (function P.Context.Fail_signal_emitted _ -> true | _ -> false))

let test_sc_failfree_state_machines_agree () =
  let cluster = Cluster.build (sc_spec ~f:2 ()) in
  run_workload cluster;
  ignore (check_total_order cluster);
  let digests =
    List.filter_map
      (fun i ->
        let m = Cluster.machine cluster i in
        if Sof_smr.State_machine.ops_applied m > 0 then
          Some (Sof_smr.State_machine.state_digest m)
        else None)
      (List.init (Cluster.process_count cluster) Fun.id)
  in
  (* All processes that kept up fully agree bit-for-bit... processes may lag,
     so compare only those with the max op count. *)
  let max_ops =
    List.fold_left max 0
      (List.init (Cluster.process_count cluster) (fun i ->
           Sof_smr.State_machine.ops_applied (Cluster.machine cluster i)))
  in
  let full =
    List.filter_map
      (fun i ->
        let m = Cluster.machine cluster i in
        if Sof_smr.State_machine.ops_applied m = max_ops then
          Some (Sof_smr.State_machine.state_digest m)
        else None)
      (List.init (Cluster.process_count cluster) Fun.id)
  in
  Alcotest.(check bool) "several caught-up replicas" true (List.length full >= 2);
  List.iter
    (fun d -> Alcotest.(check string) "same state" (List.hd full) d)
    full;
  ignore digests

let test_sc_latency_sane () =
  let cluster = Cluster.build (sc_spec ~interval:(ms 100) ()) in
  run_workload cluster;
  let point = H.Metrics.analyze cluster ~warmup:(sec 1) ~window:(sec 2) in
  match point.H.Metrics.latency with
  | None -> Alcotest.fail "no latency measured"
  | Some l ->
    if l.Sof_util.Statistics.mean < 0.5 || l.Sof_util.Statistics.mean > 100.0 then
      Alcotest.failf "implausible mean latency %.2fms" l.Sof_util.Statistics.mean

let test_sc_value_fault_triggers_failover () =
  (* Coordinator primary lies about batch 3's digest; the shadow must detect
     the value-domain failure, fail-signal, and the next candidate takes
     over; commits continue and order stays consistent. *)
  let faults = [ (0, P.Fault.Corrupt_digest_at 3) ] in
  let cluster = Cluster.build (sc_spec ~f:2 ~faults ()) in
  run_workload cluster;
  let seqs = check_total_order cluster in
  Alcotest.(check bool) "value fault detected" true
    (count_events cluster (function P.Context.Value_fault_detected _ -> true | _ -> false)
    >= 1);
  Alcotest.(check bool) "new coordinator installed" true
    (count_events cluster (function
       | P.Context.Coordinator_installed { rank } -> rank = 2
       | _ -> false)
    >= 1);
  (* Non-faulty replicas continue to deliver well past the fault. *)
  Alcotest.(check bool) "kept delivering" true (min_delivered seqs [ 1; 2; 3; 4 ] > 50)

let test_sc_mute_primary_triggers_failover () =
  let faults = [ (0, P.Fault.Mute_at (ms 500)) ] in
  let cluster = Cluster.build (sc_spec ~f:2 ~faults ()) in
  run_workload cluster;
  let seqs = check_total_order cluster in
  Alcotest.(check bool) "time-domain fail signal" true
    (count_events cluster (function
       | P.Context.Fail_signal_emitted { value_domain; _ } -> not value_domain
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "installed rank 2" true
    (count_events cluster (function
       | P.Context.Coordinator_installed { rank } -> rank = 2
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "kept delivering" true (min_delivered seqs [ 1; 2; 3; 4 ] > 50)

let test_sc_shadow_drop_endorsements () =
  (* The shadow of the coordinator never endorses: the primary's endorsement
     watch fires (time-domain) and the pair is replaced. *)
  let cluster = Cluster.build (sc_spec ~f:2 ~faults:[ (5, P.Fault.Drop_endorsements) ] ()) in
  run_workload cluster;
  let seqs = check_total_order cluster in
  Alcotest.(check bool) "installed rank 2" true
    (count_events cluster (function
       | P.Context.Coordinator_installed { rank } -> rank = 2
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "kept delivering" true (min_delivered seqs [ 1; 2; 3; 4 ] > 50)

let test_sc_chained_failures_reach_unpaired () =
  (* f=2: both pairs fail in turn; the unpaired candidate p3 (id 2) must end
     up coordinating, and it is trusted singly-signed. *)
  let faults =
    [ (0, P.Fault.Corrupt_digest_at 2); (1, P.Fault.Mute_at (sec 1)) ]
  in
  let cluster = Cluster.build (sc_spec ~f:2 ~faults ()) in
  run_workload cluster ~duration:(sec 4);
  let seqs = check_total_order cluster in
  Alcotest.(check bool) "reached candidate 3" true
    (count_events cluster (function
       | P.Context.Coordinator_installed { rank } -> rank = 3
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "kept delivering" true (min_delivered seqs [ 2; 3; 4 ] > 30)

let test_sc_f1_failover () =
  (* With f=1 the install part needs no Start_ack tuples (f-1 = 0). *)
  let cluster = Cluster.build (sc_spec ~f:1 ~faults:[ (0, P.Fault.Corrupt_digest_at 2) ] ()) in
  run_workload cluster;
  let seqs = check_total_order cluster in
  Alcotest.(check bool) "installed rank 2 (unpaired)" true
    (count_events cluster (function
       | P.Context.Coordinator_installed { rank } -> rank = 2
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "kept delivering" true (min_delivered seqs [ 1; 2 ] > 30)

let test_sc_three_sequential_failures_f3 () =
  (* f=3: all three pairs fail one after another; the system must walk the
     candidate list to the unpaired process (rank 4) and keep going. *)
  let faults =
    [
      (0, P.Fault.Corrupt_digest_at 2);
      (1, P.Fault.Mute_at (sec 1));
      (8, P.Fault.Drop_endorsements);
      (* 8 = shadow of pair 2? no: f=3 -> replicas 0..6, shadows 7,8,9.
         Use pair 3's shadow id 9. *)
    ]
  in
  ignore faults;
  let faults =
    [
      (0, P.Fault.Corrupt_digest_at 2);
      (1, P.Fault.Mute_at (sec 1));
      (9, P.Fault.Drop_endorsements);
    ]
  in
  let cluster =
    Cluster.build
      {
        (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:3) with
        Cluster.batching_interval = ms 50;
        pair_delay_estimate = ms 40;
        heartbeat_interval = ms 20;
        faults;
      }
  in
  run_workload cluster ~duration:(sec 5);
  Cluster.run cluster ~until:(sec 8);
  let seqs = check_total_order cluster in
  Alcotest.(check bool) "reached unpaired candidate 4" true
    (count_events cluster (function
       | P.Context.Coordinator_installed { rank } -> rank = 4
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "kept delivering" true (min_delivered seqs [ 3; 4; 5; 6 ] > 20)

let test_sc_noncoordinator_pair_failure_skipped () =
  (* Pair 2's primary goes mute while pair 1 is healthy: pair 2 fail-signals
     without a coordinator change.  When pair 1 later fails, the install
     must skip straight to candidate 3 (the unpaired process). *)
  let faults =
    [ (1, P.Fault.Mute_at (ms 300)); (0, P.Fault.Corrupt_digest_at 20) ]
  in
  let cluster = Cluster.build (sc_spec ~f:2 ~faults ()) in
  run_workload cluster ~duration:(sec 4);
  let seqs = check_total_order cluster in
  Alcotest.(check bool) "pair 2 fail-signalled early" true
    (count_events cluster (function
       | P.Context.Fail_signal_observed { pair } -> pair = 2
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "skipped to candidate 3" true
    (count_events cluster (function
       | P.Context.Coordinator_installed { rank } -> rank = 3
       | _ -> false)
    >= 1);
  Alcotest.(check int) "rank 2 never installed" 0
    (count_events cluster (function
       | P.Context.Coordinator_installed { rank } -> rank = 2
       | _ -> false));
  Alcotest.(check bool) "kept delivering" true (min_delivered seqs [ 2; 3; 4 ] > 20)

let test_sc_create_validation () =
  let config = P.Config.make ~kind:P.Config.Sc_protocol ~f:1 () in
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
      deliver = (fun ~seq:_ _ -> ());
      emit = ignore;
      snapshot = (fun () -> "");
      restore = ignore;
      store = None;
    }
  in
  Alcotest.check_raises "paired process needs fail-signal"
    (P.Config.Invalid_config "Sc.create: paired process needs counterpart_fail_signal")
    (fun () -> ignore (P.Sc.create ~ctx ~config ()));
  let ctx2 = { ctx with P.Context.id = 1 } in
  Alcotest.check_raises "unpaired process cannot hold one"
    (P.Config.Invalid_config "Sc.create: unpaired process cannot hold a fail-signal")
    (fun () -> ignore (P.Sc.create ~ctx:ctx2 ~config ~counterpart_fail_signal:"x" ()))

(* --------------------------------------------------------------- SCR *)

let scr_spec ?(f = 1) ?(interval = ms 50) ?(faults = []) () =
  {
    (Cluster.default_spec ~kind:Cluster.Scr_protocol ~f) with
    Cluster.batching_interval = interval;
    pair_delay_estimate = ms 40;
    heartbeat_interval = ms 20;
    faults;
  }

let test_scr_failfree_commits () =
  let cluster = Cluster.build (scr_spec ()) in
  run_workload cluster;
  let seqs = check_total_order cluster in
  Alcotest.(check bool) "delivered plenty" true (min_delivered seqs [ 0; 1; 2 ] > 100);
  Alcotest.(check int) "no fail signals" 0
    (count_events cluster (function P.Context.Fail_signal_emitted _ -> true | _ -> false))

let test_scr_value_fault_view_change () =
  let faults = [ (0, P.Fault.Corrupt_digest_at 3) ] in
  let cluster = Cluster.build (scr_spec ~f:2 ~faults ()) in
  run_workload cluster;
  let seqs = check_total_order cluster in
  Alcotest.(check bool) "view 2 installed" true
    (count_events cluster (function
       | P.Context.View_installed { v } -> v = 2
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "kept delivering" true (min_delivered seqs [ 1; 2; 3; 4 ] > 50)

let test_scr_mute_primary_view_change () =
  let faults = [ (0, P.Fault.Mute_at (ms 500)) ] in
  let cluster = Cluster.build (scr_spec ~f:1 ~faults ()) in
  run_workload cluster;
  let seqs = check_total_order cluster in
  Alcotest.(check bool) "view changed" true
    (count_events cluster (function
       | P.Context.View_installed { v } -> v >= 2
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "kept delivering" true (min_delivered seqs [ 1; 2 ] > 30)

let test_scr_surge_false_suspicion_recovers () =
  (* Partial synchrony: a delay surge makes the coordinator pair falsely
     suspect each other (fail-signal, view change); when the surge clears
     the pair recovers to Up. *)
  let cluster = Cluster.build (scr_spec ~f:1 ()) in
  let net = Cluster.network cluster in
  let engine = Cluster.engine cluster in
  ignore
    (Sof_sim.Engine.schedule engine ~delay:(ms 800) (fun () ->
         Sof_net.Network.set_surge net ~factor:500.0));
  ignore
    (Sof_sim.Engine.schedule engine ~delay:(sec 2) (fun () ->
         Sof_net.Network.clear_surge net));
  run_workload cluster ~duration:(sec 5);
  Cluster.run cluster ~until:(sec 9);
  Alcotest.(check bool) "false suspicion occurred" true
    (count_events cluster (function
       | P.Context.Fail_signal_emitted { value_domain; _ } -> not value_domain
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "pair recovered" true
    (count_events cluster (function P.Context.Pair_recovered _ -> true | _ -> false) >= 1);
  ignore (check_total_order cluster)

let test_scr_unwilling_pair_skipped () =
  (* Pair 2's primary is mute from the start, so pair 2 is down (its shadow
     fail-signals).  When pair 1's coordinator then commits a value fault,
     view 2's candidate (pair 2) must answer Unwilling and the system must
     land on view 3 = pair 3. *)
  let faults =
    [ (1, P.Fault.Mute_at (ms 200)); (0, P.Fault.Corrupt_digest_at 15) ]
  in
  let cluster = Cluster.build (scr_spec ~f:2 ~faults ()) in
  run_workload cluster ~duration:(sec 5);
  Cluster.run cluster ~until:(sec 8);
  let seqs = check_total_order cluster in
  Alcotest.(check bool) "a later view installed" true
    (count_events cluster (function
       | P.Context.View_installed { v } -> v >= 3
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "kept delivering" true (min_delivered seqs [ 2; 3; 4 ] > 10)

(* --------------------------------------------------------------- BFT *)

let bft_spec ?(f = 1) ?(interval = ms 50) ?(faults = []) () =
  {
    (Cluster.default_spec ~kind:Cluster.Bft_protocol ~f) with
    Cluster.batching_interval = interval;
    faults;
  }

let test_bft_failfree_commits () =
  let cluster = Cluster.build (bft_spec ~f:2 ()) in
  run_workload cluster;
  let seqs = check_total_order cluster in
  Alcotest.(check bool) "delivered plenty" true
    (min_delivered seqs (List.init 7 Fun.id) > 100)

let test_bft_mute_primary_view_change () =
  let faults = [ (0, P.Fault.Mute_at (ms 500)) ] in
  let cluster = Cluster.build (bft_spec ~f:1 ~faults ()) in
  run_workload cluster ~duration:(sec 6);
  Cluster.run cluster ~until:(sec 9);
  let seqs = check_total_order cluster in
  Alcotest.(check bool) "view changed" true
    (count_events cluster (function
       | P.Context.View_installed { v } -> v >= 1
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "kept delivering" true (min_delivered seqs [ 1; 2; 3 ] > 20)

(* ---------------------------------------------------------------- CT *)

let ct_spec ?(f = 1) ?(interval = ms 50) () =
  {
    (Cluster.default_spec ~kind:Cluster.Ct_protocol ~f) with
    Cluster.batching_interval = interval;
  }

let test_ct_failfree_commits () =
  let cluster = Cluster.build (ct_spec ~f:2 ()) in
  run_workload cluster;
  let seqs = check_total_order cluster in
  Alcotest.(check bool) "delivered plenty" true
    (min_delivered seqs (List.init 5 Fun.id) > 100)

let test_ct_coordinator_crash_rotation () =
  let cluster = Cluster.build (ct_spec ~f:1 ()) in
  ignore
    (Sof_sim.Engine.schedule (Cluster.engine cluster) ~delay:(ms 700) (fun () ->
         Cluster.crash cluster 0));
  run_workload cluster ~duration:(sec 5);
  Cluster.run cluster ~until:(sec 8);
  let seqs = check_total_order cluster in
  (* Survivors keep delivering after the crash and rotation. *)
  Alcotest.(check bool) "kept delivering" true (min_delivered seqs [ 1; 2 ] > 30)

(* ------------------------------------------------------------ latency *)

let test_relative_latency_ct_sc_bft () =
  (* The paper's headline: CT < SC < BFT in fail-free steady state, with the
     paper's crypto cost model. *)
  let latency kind =
    let spec =
      {
        (Cluster.default_spec ~kind ~f:2) with
        Cluster.batching_interval = ms 200;
        scheme = Sof_crypto.Scheme.mock;
        (* cost table below swaps in RSA-1024-era costs *)
      }
    in
    let spec =
      {
        spec with
        Cluster.scheme =
          {
            Sof_crypto.Scheme.mock with
            Sof_crypto.Scheme.costs = Sof_crypto.Scheme.md5_rsa1024.Sof_crypto.Scheme.costs;
          };
      }
    in
    let cluster = Cluster.build spec in
    Workload.install cluster (Workload.make ~rate_per_sec:100.0 ()) ~duration:(sec 4);
    Cluster.run cluster ~until:(sec 5);
    let p = H.Metrics.analyze cluster ~warmup:(sec 1) ~window:(sec 3) in
    match p.H.Metrics.latency with
    | Some l -> l.Sof_util.Statistics.mean
    | None -> Alcotest.failf "no latency for run"
  in
  let ct = latency Cluster.Ct_protocol in
  let sc = latency Cluster.Sc_protocol in
  let bft = latency Cluster.Bft_protocol in
  if not (ct < sc && sc < bft) then
    Alcotest.failf "expected CT < SC < BFT, got %.2f %.2f %.2f" ct sc bft

(* ------------------------------------------------------- chaos soaks *)

(* A seeded Nemesis campaign — lossy links throughout, a surge, at least one
   partition+heal and one tolerated crash — must leave every invariant
   (agreement, prefix consistency, validity, liveness after heal) intact.
   The channel layer is what makes this pass: the substrate really does
   drop and duplicate protocol traffic (visible in the stats). *)
let soak kind seed () =
  let report =
    H.Nemesis.run ~layers:[ Lossy ] ~kind ~f:1 ~seed ~duration:(sec 8) ()
  in
  if not report.H.Nemesis.passed then
    Alcotest.failf "chaos campaign failed:@.%a" H.Nemesis.pp_report report;
  Alcotest.(check bool) "substrate dropped messages" true
    (report.H.Nemesis.net.Sof_net.Network.messages_dropped > 0);
  Alcotest.(check bool) "channel retransmitted" true
    (match report.H.Nemesis.channel with
    | Some c -> c.Sof_net.Channel.retransmits > 0
    | None -> false);
  Alcotest.(check bool) "honest survivors made progress" true
    (report.H.Nemesis.min_honest_deliveries > 0)

let test_soak_determinism () =
  let fingerprint () =
    let r =
      H.Nemesis.run ~layers:[ Lossy ] ~kind:Cluster.Scr_protocol ~f:1 ~seed:42L
        ~duration:(sec 6) ()
    in
    Format.asprintf "%a" H.Nemesis.pp_report r
  in
  Alcotest.(check string) "same seed, same campaign, same outcome"
    (fingerprint ()) (fingerprint ())

(* ------------------------------------------------------------ wire *)

(* Every frame a seeded cluster delivers must be canonical: decoding and
   re-encoding gives back the same bytes, and the decoded envelope's body
   bytes are exactly the frame's body field.  Receivers verify signatures
   over those bytes, so this is what makes that sound on real traffic.
   Returns the body tags seen. *)
let check_delivered_frames cluster ~run =
  let tags = Hashtbl.create 16 in
  Sof_net.Network.on_deliver (Cluster.network cluster) (fun ~src ~dst ~payload ->
      match P.Message.decode payload with
      | env ->
        Hashtbl.replace tags (P.Message.body_tag env.P.Message.body) ();
        if not (String.equal (P.Message.encode env) payload) then
          Alcotest.failf "frame %d->%d re-encodes differently" src dst;
        let r = Sof_util.Codec.Reader.of_string payload in
        ignore (Sof_util.Codec.Reader.varint r);
        if not (String.equal (Sof_util.Codec.Reader.string r) env.P.Message.body_bytes) then
          Alcotest.failf "frame %d->%d: body bytes are not the body field" src dst
      | exception Sof_util.Codec.Reader.Truncated ->
        Alcotest.failf "frame %d->%d does not decode" src dst);
  run cluster;
  ignore (check_total_order cluster);
  List.sort String.compare (Hashtbl.fold (fun tag () acc -> tag :: acc) tags [])

let test_wire_frames_sc () =
  let faults = [ (0, P.Fault.Corrupt_digest_at 3) ] in
  let tags =
    check_delivered_frames (Cluster.build (sc_spec ~f:2 ~faults ())) ~run:(fun c ->
        run_workload ~duration:(sec 1) c)
  in
  List.iter
    (fun tag -> Alcotest.(check bool) (tag ^ " seen") true (List.mem tag tags))
    [ "order"; "ack"; "fail_signal"; "back_log"; "start"; "heartbeat" ]

let test_wire_frames_bft () =
  let faults = [ (0, P.Fault.Mute_at (ms 500)) ] in
  let tags =
    check_delivered_frames (Cluster.build (bft_spec ~f:1 ~faults ())) ~run:(fun c ->
        run_workload ~duration:(sec 3) c)
  in
  List.iter
    (fun tag -> Alcotest.(check bool) (tag ^ " seen") true (List.mem tag tags))
    [ "pre_prepare"; "prepare"; "commit"; "bft_view_change"; "bft_new_view" ]

(* ------------------------------------------------------- late bodies *)

(* A replica that commits a batch before the request's body reaches it
   must deliver the moment the body arrives.  Every process but replica 2
   gets the request; once the others have delivered it, replica 2 gets
   the body and delivers seq 1 without the engine running further. *)
let late_body kind () =
  let c = Cluster.build (Cluster.default_spec ~kind ~f:1) in
  let req = Workload.make_request (Sof_util.Rng.create 1L) ~client:0 ~client_seq:1 ~op_bytes:80 in
  let late = 2 in
  let others = List.filter (fun i -> i <> late) (List.init (Cluster.process_count c) Fun.id) in
  List.iter (fun i -> P.Replica.on_request (Cluster.proc c i) req) others;
  Cluster.run c ~until:(sec 2);
  List.iter
    (fun i ->
      Alcotest.(check int) (Printf.sprintf "process %d delivered" i) 1 (Cluster.delivered_seq c i))
    others;
  Alcotest.(check int) "late replica waits for the body" 0 (Cluster.delivered_seq c late);
  P.Replica.on_request (Cluster.proc c late) req;
  Alcotest.(check int) "late replica delivers on arrival" 1 (Cluster.delivered_seq c late)

(* ------------------------------------------------- missed requests *)

(* A replica that is down while clients send never sees those requests'
   bodies, and an order carries only their digests.  Replica 2 (never an
   SC coordinator candidate, SCR's unpaired replica) crashes before any
   request; twelve requests then reach the survivors only, 40 ms apart,
   and are ordered in five batches; at 2 s it restarts with empty state
   and the run settles with no more requests.  It must reach the
   survivors' delivery point and state.  It does through state transfer:
   it installs the stable checkpoint at 4 and the certified entry above
   it, whose batch carries the bodies it never received.  It does not
   cover a restart while the missed requests are still being ordered:
   restarted at 600 ms, p2 stays one delivery behind (seeds 1-3), a known
   fault on ROADMAP item 2. *)
let missed_requests kind () =
  let c =
    Cluster.build { (Cluster.default_spec ~kind ~f:1) with Cluster.checkpoint_interval = 4 }
  in
  let victim = 2 in
  let n = Cluster.process_count c in
  let survivors = List.filter (fun i -> i <> victim) (List.init n Fun.id) in
  let at t f = ignore (Sof_sim.Engine.schedule_at (Cluster.engine c) ~at:t f) in
  let rng = Sof_util.Rng.create 5L in
  Cluster.crash c victim;
  for i = 1 to 12 do
    let req = Workload.make_request rng ~client:0 ~client_seq:i ~op_bytes:80 in
    at (ms (100 + (40 * i))) (fun () ->
        List.iter (fun j -> P.Replica.on_request (Cluster.proc c j) req) survivors)
  done;
  Cluster.run c ~until:(sec 2);
  let reached = List.fold_left (fun a i -> max a (Cluster.delivered_seq c i)) 0 survivors in
  Alcotest.(check bool) "survivors deliver while the victim is down" true (reached > 0);
  Cluster.restart c victim;
  Cluster.run c ~until:(sec 10);
  List.iter
    (fun i ->
      Alcotest.(check int) (Printf.sprintf "process %d's delivery point" i) reached
        (Cluster.delivered_seq c i))
    (List.init n Fun.id);
  let digest i = Sof_smr.State_machine.state_digest (Cluster.machine c i) in
  List.iter
    (fun i -> Alcotest.(check string) (Printf.sprintf "process %d's state" i) (digest 0) (digest i))
    (List.init n Fun.id)

let suite =
  [
    ( "protocol.sc",
      [
        Alcotest.test_case "fail-free commits" `Quick test_sc_failfree_commits;
        Alcotest.test_case "state machines agree" `Quick test_sc_failfree_state_machines_agree;
        Alcotest.test_case "latency sane" `Quick test_sc_latency_sane;
        Alcotest.test_case "value fault failover" `Quick test_sc_value_fault_triggers_failover;
        Alcotest.test_case "mute primary failover" `Quick test_sc_mute_primary_triggers_failover;
        Alcotest.test_case "shadow drops endorsements" `Quick test_sc_shadow_drop_endorsements;
        Alcotest.test_case "chained failures" `Quick test_sc_chained_failures_reach_unpaired;
        Alcotest.test_case "f=1 failover" `Quick test_sc_f1_failover;
        Alcotest.test_case "non-coordinator pair skipped" `Quick
          test_sc_noncoordinator_pair_failure_skipped;
        Alcotest.test_case "three sequential failures (f=3)" `Quick
          test_sc_three_sequential_failures_f3;
        Alcotest.test_case "create validation" `Quick test_sc_create_validation;
      ] );
    ( "protocol.scr",
      [
        Alcotest.test_case "fail-free commits" `Quick test_scr_failfree_commits;
        Alcotest.test_case "value fault view change" `Quick test_scr_value_fault_view_change;
        Alcotest.test_case "mute primary view change" `Quick test_scr_mute_primary_view_change;
        Alcotest.test_case "surge suspicion and recovery" `Quick test_scr_surge_false_suspicion_recovers;
        Alcotest.test_case "unwilling pair skipped" `Quick test_scr_unwilling_pair_skipped;
      ] );
    ( "protocol.bft",
      [
        Alcotest.test_case "fail-free commits" `Quick test_bft_failfree_commits;
        Alcotest.test_case "mute primary view change" `Quick test_bft_mute_primary_view_change;
      ] );
    ( "protocol.ct",
      [
        Alcotest.test_case "fail-free commits" `Quick test_ct_failfree_commits;
        Alcotest.test_case "coordinator crash rotation" `Quick test_ct_coordinator_crash_rotation;
      ] );
    ( "protocol.comparative",
      [
        Alcotest.test_case "CT < SC < BFT latency" `Slow test_relative_latency_ct_sc_bft;
      ] );
    ( "protocol.chaos",
      [
        Alcotest.test_case "sc soak (seed 7)" `Slow (soak Cluster.Sc_protocol 7L);
        Alcotest.test_case "scr soak (seed 42)" `Slow (soak Cluster.Scr_protocol 42L);
        Alcotest.test_case "seeded campaign is deterministic" `Slow test_soak_determinism;
      ] );
    ( "protocol.late_body",
      List.map
        (fun kind ->
          Alcotest.test_case (P.Replica.name kind) `Quick (late_body kind))
        Cluster.[ Sc_protocol; Scr_protocol; Bft_protocol; Ct_protocol ] );
    ( "protocol.missed_requests",
      List.map
        (fun kind -> Alcotest.test_case (P.Replica.name kind) `Quick (missed_requests kind))
        Cluster.[ Sc_protocol; Scr_protocol ] );
    ( "protocol.wire",
      [
        Alcotest.test_case "sc frames canonical" `Quick test_wire_frames_sc;
        Alcotest.test_case "bft frames canonical" `Quick test_wire_frames_bft;
      ] );
  ]
