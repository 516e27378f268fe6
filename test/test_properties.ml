(* Protocol-level property tests: for randomly drawn fault schedules within
   the paper's fault model, safety (agreement, total order) must always hold
   and the system must keep delivering. *)

module Simtime = Sof_sim.Simtime
module P = Sof_protocol
module H = Sof_harness
module Cluster = H.Cluster

let ms = Simtime.ms
let sec = Simtime.sec

let delivered_sequences cluster =
  let n = Cluster.process_count cluster in
  let seqs = Array.make n [] in
  List.iter
    (fun (_, who, event) ->
      match event with
      | P.Context.Delivered { batch; _ } ->
        seqs.(who) <-
          List.rev_append
            (List.map (fun r -> r.Sof_smr.Request.key) batch.P.Batch.requests)
            seqs.(who)
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

let total_order_holds cluster =
  let seqs = delivered_sequences cluster in
  let ok = ref true in
  Array.iteri
    (fun i si ->
      Array.iteri
        (fun j sj -> if i < j && not (is_prefix si sj || is_prefix sj si) then ok := false)
        seqs)
    seqs;
  (!ok, seqs)

(* One fault within the model: at most one process of the coordinator pair
   misbehaves, in one of the paper's failure modes. *)
type schedule = {
  sched_f : int;
  seed : int64;
  fault_process : int; (* 0 = pair-1 primary, 1 = pair-1 shadow *)
  fault_kind : int; (* 0 corrupt digest, 1 mute, 2 drop endorsements *)
  fault_param : int;
}

let gen_schedule =
  QCheck.Gen.(
    map
      (fun (sched_f, seed, fault_process, fault_kind, fault_param) ->
        { sched_f; seed = Int64.of_int (seed + 1); fault_process; fault_kind; fault_param })
      (tup5 (int_range 1 2) (int_bound 10_000) (int_bound 1) (int_bound 2)
         (int_range 1 8)))

let print_schedule s =
  Printf.sprintf "{f=%d; seed=%Ld; proc=%d; kind=%d; param=%d}" s.sched_f s.seed
    s.fault_process s.fault_kind s.fault_param

let run_schedule kind s =
  let config_f = s.sched_f in
  let faulty_id =
    (* pair-1 primary is process 0; its shadow is the first shadow id. *)
    if s.fault_process = 0 then 0
    else begin
      match kind with
      | Cluster.Sc_protocol -> (2 * config_f) + 1
      | Cluster.Scr_protocol -> (2 * config_f) + 1
      | Cluster.Bft_protocol | Cluster.Ct_protocol -> 1
    end
  in
  let fault =
    match s.fault_kind with
    | 0 ->
      if s.fault_process = 0 then P.Fault.Corrupt_digest_at s.fault_param
      else P.Fault.Endorse_corrupt_at s.fault_param
    | 1 -> P.Fault.Mute_at (ms (100 * s.fault_param))
    | _ -> if s.fault_process = 0 then P.Fault.Mute_at (ms (100 * s.fault_param)) else P.Fault.Drop_endorsements
  in
  let spec =
    {
      (Cluster.default_spec ~kind ~f:config_f) with
      Cluster.batching_interval = ms 40;
      pair_delay_estimate = ms 60;
      heartbeat_interval = ms 25;
      seed = s.seed;
      faults = [ (faulty_id, fault) ];
    }
  in
  let cluster = Cluster.build spec in
  H.Workload.install cluster (H.Workload.make ~rate_per_sec:200.0 ()) ~duration:(sec 3);
  Cluster.run cluster ~until:(sec 5);
  cluster

(* NB: Endorse_corrupt_at on the shadow alone is harmless — the shadow only
   uses it when the primary's order is invalid, which an honest primary
   never produces — so every generated schedule stays within "at most one
   faulty process per pair".  Safety must hold unconditionally. *)
let prop_sc_safety_under_faults =
  QCheck.Test.make ~name:"SC: total order under random single-fault schedules"
    ~count:15
    (QCheck.make ~print:print_schedule gen_schedule)
    (fun s ->
      let cluster = run_schedule Cluster.Sc_protocol s in
      let ok, seqs = total_order_holds cluster in
      let delivered_somewhere = Array.exists (fun l -> List.length l > 10) seqs in
      ok && delivered_somewhere)

let prop_scr_safety_under_faults =
  QCheck.Test.make ~name:"SCR: total order under random single-fault schedules"
    ~count:10
    (QCheck.make ~print:print_schedule gen_schedule)
    (fun s ->
      let cluster = run_schedule Cluster.Scr_protocol s in
      let ok, seqs = total_order_holds cluster in
      let delivered_somewhere = Array.exists (fun l -> List.length l > 10) seqs in
      ok && delivered_somewhere)

let prop_sc_interval_insensitive_safety =
  (* Safety must not depend on timing parameters: sweep odd intervals and
     estimates with a mute coordinator. *)
  QCheck.Test.make ~name:"SC: safety across timing parameters" ~count:10
    QCheck.(pair (int_range 10 150) (int_range 20 200))
    (fun (interval, estimate) ->
      let spec =
        {
          (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) with
          Cluster.batching_interval = ms interval;
          pair_delay_estimate = ms estimate;
          heartbeat_interval = ms 25;
          faults = [ (0, P.Fault.Mute_at (ms 400)) ];
        }
      in
      let cluster = Cluster.build spec in
      H.Workload.install cluster (H.Workload.make ~rate_per_sec:150.0 ()) ~duration:(sec 3);
      Cluster.run cluster ~until:(sec 5);
      fst (total_order_holds cluster))

(* --------------------------------------------------------------- census *)

let test_census_sc_has_no_prepare () =
  let spec =
    {
      (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) with
      Cluster.batching_interval = ms 50;
    }
  in
  let cluster = Cluster.build spec in
  let census = H.Census.attach cluster in
  H.Workload.install cluster (H.Workload.make ~rate_per_sec:100.0 ()) ~duration:(sec 2);
  Cluster.run cluster ~until:(sec 3);
  let tags = List.map (fun (t, _, _) -> t) (H.Census.counts census) in
  Alcotest.(check bool) "orders flowed" true (List.mem "order" tags);
  Alcotest.(check bool) "acks flowed" true (List.mem "ack" tags);
  Alcotest.(check bool) "no prepare phase" false (List.mem "prepare" tags);
  Alcotest.(check bool) "totals positive" true (H.Census.total_bytes census > 0)

let test_census_bft_has_three_phases () =
  let spec =
    {
      (Cluster.default_spec ~kind:Cluster.Bft_protocol ~f:1) with
      Cluster.batching_interval = ms 50;
    }
  in
  let cluster = Cluster.build spec in
  let census = H.Census.attach cluster in
  H.Workload.install cluster (H.Workload.make ~rate_per_sec:100.0 ()) ~duration:(sec 2);
  Cluster.run cluster ~until:(sec 3);
  let tags = List.map (fun (t, _, _) -> t) (H.Census.counts census) in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " present") true (List.mem phase tags))
    [ "pre_prepare"; "prepare"; "commit" ]

(* -------------------------------------------------------------- tracing *)

(* Fail-free runs across all four protocols: the span stream the tracing
   layer extracts must be structurally sound for any seed.  The workload
   ends two seconds before the run so every batch commits and closes its
   spans. *)
let failfree_cluster kind ~config_f ~seed ~interval_ms =
  let spec =
    {
      (Cluster.default_spec ~kind ~f:config_f) with
      Cluster.batching_interval = ms interval_ms;
      pair_delay_estimate = sec 30;
      heartbeat_interval = sec 3600;
      seed;
    }
  in
  let cluster = Cluster.build spec in
  H.Workload.install cluster (H.Workload.make ~rate_per_sec:150.0 ()) ~duration:(sec 2);
  Cluster.run cluster ~until:(sec 4);
  cluster

let kind_of_int = List.nth Sof_protocol.Replica.kinds

let gen_trace_case =
  QCheck.Gen.(
    map
      (fun (k, config_f, seed, interval) ->
        (k, config_f, Int64.of_int (seed + 1), interval))
      (tup4 (int_bound 3) (int_range 1 2) (int_bound 5_000) (int_range 40 150)))

let print_trace_case (k, config_f, seed, interval) =
  Printf.sprintf "{kind=%s; f=%d; seed=%Ld; interval=%dms}"
    (Sof_protocol.Replica.name (kind_of_int k))
    config_f seed interval

let prop_trace_spans_well_formed =
  QCheck.Test.make
    ~name:"Trace: spans balance, stay monotone and nest, any protocol/seed"
    ~count:12
    (QCheck.make ~print:print_trace_case gen_trace_case)
    (fun (k, config_f, seed, interval) ->
      let cluster =
        failfree_cluster (kind_of_int k) ~config_f ~seed ~interval_ms:interval
      in
      let rows = Cluster.events cluster in
      let spans = H.Trace.spans rows in
      H.Trace.balanced rows && H.Trace.monotone rows && H.Trace.nested rows
      && spans <> []
      (* every span closes no earlier than it opens *)
      && List.for_all
           (fun (s : H.Trace.span) ->
             Simtime.compare s.H.Trace.opened_at s.H.Trace.closed_at <= 0)
           spans)

let prop_trace_crypto_accounting =
  QCheck.Test.make
    ~name:"Trace: crypto totals = per-process sums priced by the cost table"
    ~count:8
    (QCheck.make ~print:print_trace_case gen_trace_case)
    (fun (k, config_f, seed, interval) ->
      let cluster =
        failfree_cluster (kind_of_int k) ~config_f ~seed ~interval_ms:interval
      in
      let n = Cluster.process_count cluster in
      let per = List.init n (Cluster.crypto_counts cluster) in
      let total = H.Trace.total_crypto per in
      let costs = (Cluster.spec cluster).Cluster.scheme.Sof_crypto.Scheme.costs in
      total = Cluster.total_crypto_counts cluster
      && total.H.Trace.sign_ns
         = total.H.Trace.signs * costs.Sof_crypto.Scheme.sign_ns
      && total.H.Trace.verify_ns
         = total.H.Trace.verifies * costs.Sof_crypto.Scheme.verify_ns
      && total.H.Trace.digest_ns
         = total.H.Trace.digest_bytes * costs.Sof_crypto.Scheme.digest_ns_per_byte)

let suite =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest prop_sc_safety_under_faults;
        QCheck_alcotest.to_alcotest prop_scr_safety_under_faults;
        QCheck_alcotest.to_alcotest prop_sc_interval_insensitive_safety;
        QCheck_alcotest.to_alcotest prop_trace_spans_well_formed;
        QCheck_alcotest.to_alcotest prop_trace_crypto_accounting;
      ] );
    ( "harness.census",
      [
        Alcotest.test_case "sc has no prepare" `Quick test_census_sc_has_no_prepare;
        Alcotest.test_case "bft has three phases" `Quick test_census_bft_has_three_phases;
      ] );
  ]
