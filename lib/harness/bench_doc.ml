(* The versioned benchmark document: one JSON object carrying every figure
   series, the per-protocol phase breakdowns, and the PASS/FAIL verdicts.
   [sof bench --json] and the golden-schema test both build and read the
   same shape through this module. *)

module Json = Sof_util.Json

let schema_version = 6

let json_of_point (p : Experiments.series_point) =
  Json.Obj
    [
      ("interval_ms", Json.Num p.Experiments.batching_interval_ms);
      ( "latency_ms",
        match p.Experiments.latency_ms with
        | Some v -> Json.Num v
        | None -> Json.Null );
      ("throughput_rps", Json.Num p.Experiments.throughput_rps);
    ]

let json_of_series (s : Experiments.series) =
  Json.Obj
    [
      ("protocol", Json.Str s.Experiments.label);
      ("points", Json.List (List.map json_of_point s.Experiments.points));
    ]

let json_of_failover_series (s : Experiments.failover_series) =
  Json.Obj
    [
      ("protocol", Json.Str s.Experiments.fo_label);
      ( "points",
        Json.List
          (List.map
             (fun (p : Experiments.failover_point) ->
               Json.Obj
                 [
                   ("target_uncommitted", Json.num_of_int p.Experiments.target_uncommitted);
                   ("backlog_bytes", Json.num_of_int p.Experiments.backlog_bytes);
                   ("failover_ms", Json.Num p.Experiments.failover_ms);
                 ])
             s.Experiments.fo_points) );
    ]

let json_of_crypto (c : Trace.crypto) =
  Json.Obj
    [
      ("signs", Json.num_of_int c.Trace.signs);
      ("verifies", Json.num_of_int c.Trace.verifies);
      ("hmacs", Json.num_of_int c.Trace.hmacs);
      ("sign_ns", Json.num_of_int c.Trace.sign_ns);
      ("verify_ns", Json.num_of_int c.Trace.verify_ns);
      ("hmac_ns", Json.num_of_int c.Trace.hmac_ns);
      ("verify_cached", Json.num_of_int c.Trace.verify_cached);
      ("digest_bytes", Json.num_of_int c.Trace.digest_bytes);
      ("digest_ns", Json.num_of_int c.Trace.digest_ns);
    ]

let json_of_phase_stat (ps : Metrics.phase_stat) =
  Json.Obj
    [
      ("phase", Json.Str (Sof_protocol.Context.phase_name ps.Metrics.ps_phase));
      ("intervals", Json.num_of_int ps.Metrics.ps_intervals);
      ("mean_width_ms", Json.Num ps.Metrics.ps_mean_width_ms);
      ("share", Json.Num ps.Metrics.ps_share);
      ("msgs_per_batch", Json.Num ps.Metrics.ps_msgs_per_batch);
      ("senders", Json.num_of_int ps.Metrics.ps_senders);
      ("wide", Json.Bool ps.Metrics.ps_wide);
      ("n_to_n", Json.Bool ps.Metrics.ps_n_to_n);
    ]

let json_of_breakdown (bd : Metrics.breakdown) =
  Json.Obj
    [
      ("protocol", Json.Str bd.Metrics.bd_protocol);
      ("auth", Json.Str bd.Metrics.bd_auth);
      ("n", Json.num_of_int bd.Metrics.bd_n);
      ("f", Json.num_of_int bd.Metrics.bd_f);
      ("batches", Json.num_of_int bd.Metrics.bd_batches);
      ("mean_batch_ms", Json.Num bd.Metrics.bd_mean_batch_ms);
      ("wide_phases", Json.num_of_int bd.Metrics.bd_wide_phases);
      ("n_to_n_share", Json.Num bd.Metrics.bd_n_to_n_share);
      ("signs_per_batch", Json.Num bd.Metrics.bd_signs_per_batch);
      ("verifies_per_batch", Json.Num bd.Metrics.bd_verifies_per_batch);
      ("hmacs_per_batch", Json.Num bd.Metrics.bd_hmacs_per_batch);
      ("crypto", json_of_crypto bd.Metrics.bd_crypto);
      ( "message_counts",
        Json.List
          (List.map
             (fun (mc : Trace.msg_count) ->
               Json.Obj
                 [
                   ("tag", Json.Str mc.Trace.tag);
                   ("msgs", Json.num_of_int mc.Trace.msgs);
                   ("bytes", Json.num_of_int mc.Trace.bytes);
                 ])
             bd.Metrics.bd_msg_counts) );
      ("phases", Json.List (List.map json_of_phase_stat bd.Metrics.bd_phases));
    ]

let json_of_recovery (label, (r : Metrics.recovery)) =
  Json.Obj
    [
      ("protocol", Json.Str label);
      ("restarts", Json.num_of_int r.Metrics.rc_restarts);
      ("recovered", Json.num_of_int r.Metrics.rc_recovered);
      ("local_replays", Json.num_of_int r.Metrics.rc_local_replays);
      ("local_recoveries", Json.num_of_int r.Metrics.rc_local_recoveries);
      ("transfers_started", Json.num_of_int r.Metrics.rc_transfers_started);
      ("transfers_installed", Json.num_of_int r.Metrics.rc_transfers_installed);
      ("transfers_rejected", Json.num_of_int r.Metrics.rc_transfers_rejected);
      ("checkpoints_stable", Json.num_of_int r.Metrics.rc_checkpoints_stable);
      ("truncations", Json.num_of_int r.Metrics.rc_truncations);
      ( "mean_recovery_ms",
        match r.Metrics.rc_mean_recovery_ms with
        | Some v -> Json.Num v
        | None -> Json.Null );
      ("max_retained_log", Json.num_of_int r.Metrics.rc_max_log_length);
    ]

(* One row per protocol from a durable fault-atlas campaign: how much the
   durable write path cost, how recovery split between local replay and
   state transfer, and what the atlas actually hit. *)
let json_of_storage_row (label, (r : Metrics.recovery), (st : Cluster.storage_totals)) =
  Json.Obj
    [
      ("protocol", Json.Str label);
      ("local_replays", Json.num_of_int r.Metrics.rc_local_replays);
      ("local_recoveries", Json.num_of_int r.Metrics.rc_local_recoveries);
      ("transfers_installed", Json.num_of_int r.Metrics.rc_transfers_installed);
      ( "mean_recovery_ms",
        match r.Metrics.rc_mean_recovery_ms with
        | Some v -> Json.Num v
        | None -> Json.Null );
      ("wal_appends", Json.num_of_int st.Cluster.sg_appends);
      ("wal_syncs", Json.num_of_int st.Cluster.sg_syncs);
      ("checkpoint_writes", Json.num_of_int st.Cluster.sg_checkpoint_writes);
      ("frames_dropped", Json.num_of_int st.Cluster.sg_dropped);
      ("replayed_entries", Json.num_of_int st.Cluster.sg_replayed_entries);
      ("damaged_replays", Json.num_of_int st.Cluster.sg_damaged_replays);
      ("lost_writes", Json.num_of_int st.Cluster.sg_lost_writes);
      ("misdirected_writes", Json.num_of_int st.Cluster.sg_misdirected);
      ("torn_sectors", Json.num_of_int st.Cluster.sg_torn);
      ("corrupt_reads", Json.num_of_int st.Cluster.sg_corrupt_reads);
    ]

(* The critical-path claims the phase breakdown decides mechanically: the
   reason SC beats BFT in the paper's Section 5 is one fewer all-to-all
   round and cheaper per-batch authentication. *)
let find_breakdown (breakdowns : Metrics.breakdown list) ~protocol ~auth =
  List.find_opt
    (fun (bd : Metrics.breakdown) ->
      String.equal bd.Metrics.bd_protocol protocol
      && String.equal bd.Metrics.bd_auth auth)
    breakdowns

let phase_verdicts (breakdowns : Metrics.breakdown list) =
  let find p = find_breakdown breakdowns ~protocol:p ~auth:"sign" in
  match (find "SC", find "BFT") with
  | Some sc, Some bft ->
    [
      ( "critical path: SC has two wide phases, BFT three",
        sc.Metrics.bd_wide_phases = 2 && bft.Metrics.bd_wide_phases = 3 );
      ( "critical path: SC n-to-n message share < BFT",
        sc.Metrics.bd_n_to_n_share < bft.Metrics.bd_n_to_n_share );
      ( "crypto: SC verifies per batch < BFT",
        sc.Metrics.bd_verifies_per_batch < bft.Metrics.bd_verifies_per_batch );
    ]
  | _ -> []

(* MAC-mode verdicts: under authenticator vectors the asymmetric
   verifies/batch must collapse to the accountability residue — only
   orders, fail-signals and checkpoints still carry scheme signatures.
   On SC's fail-free path that is both order signatures (base plus
   endorsement) checked by each of the n-1 non-originating receivers,
   plus the endorser's own check of the base signature before endorsing
   and the coordinator's check of the returned endorsement before
   forwarding: 2(n-1) + 2 = 2n bounds it; anything above that would mean
   a quorum phase still burning asymmetric verifies. *)
let mac_verdicts (breakdowns : Metrics.breakdown list) =
  match
    ( find_breakdown breakdowns ~protocol:"SC" ~auth:"sign",
      find_breakdown breakdowns ~protocol:"SC" ~auth:"mac" )
  with
  | Some signed, Some mac ->
    let residue = float_of_int (2 * mac.Metrics.bd_n) in
    [
      ( "auth: SC mac-mode asymmetric verifies/batch within accountability \
         residue",
        mac.Metrics.bd_batches > 0
        && mac.Metrics.bd_verifies_per_batch <= residue );
      ( "auth: SC mac-mode asymmetric verifies/batch < signed mode",
        mac.Metrics.bd_verifies_per_batch < signed.Metrics.bd_verifies_per_batch
      );
      ( "auth: SC mac-mode quorum traffic rides MAC vectors",
        mac.Metrics.bd_hmacs_per_batch > 0.0
        && signed.Metrics.bd_hmacs_per_batch = 0.0 );
    ]
  | _ -> []

let modexp_verdicts (points : Experiments.modexp_point list) =
  List.map
    (fun (p : Experiments.modexp_point) ->
      ( Printf.sprintf "modexp: Montgomery beats Knuth at %d bits"
          p.Experiments.mx_bits,
        p.Experiments.mx_montgomery_ms < p.Experiments.mx_knuth_ms ))
    points

(* Timing verdicts from the timeout-sensitivity sweep: the static x1.0 row
   must show the premature accusations the gray campaign is built to
   provoke, and the adaptive row must ride out the identical schedule with
   zero fail-signals — that asymmetry is the whole case for the adaptive
   estimator.  Degradation-liveness must hold on every row: a mis-set
   timer may churn configurations, but it must never stop delivery. *)
let timing_verdicts (points : Experiments.timeout_point list) =
  match points with
  | [] -> []
  | _ ->
    let static_base =
      List.find_opt
        (fun (p : Experiments.timeout_point) ->
          p.Experiments.ts_multiplier = Some 1.0)
        points
    in
    let adaptive =
      List.find_opt
        (fun (p : Experiments.timeout_point) ->
          p.Experiments.ts_multiplier = None)
        points
    in
    [
      ( "timing: static x1.0 estimate accuses a healthy pair under gray delay",
        match static_base with
        | Some p -> p.Experiments.ts_fail_signals > 0
        | None -> false );
      ( "timing: adaptive estimator emits no fail-signal on the same schedule",
        match adaptive with
        | Some p -> p.Experiments.ts_fail_signals = 0 && p.Experiments.ts_passed
        | None -> false );
      ( "timing: delivery never stops during the surge at any estimate",
        List.for_all
          (fun (p : Experiments.timeout_point) ->
            p.Experiments.ts_degradation_live)
          points );
    ]

let json_of_timeout_point (p : Experiments.timeout_point) =
  Json.Obj
    [
      ("label", Json.Str p.Experiments.ts_label);
      ( "multiplier",
        match p.Experiments.ts_multiplier with
        | Some m -> Json.Num m
        | None -> Json.Null );
      ("estimate_ms", Json.Num p.Experiments.ts_estimate_ms);
      ("fail_signals", Json.num_of_int p.Experiments.ts_fail_signals);
      ("installs", Json.num_of_int p.Experiments.ts_installs);
      ("min_deliveries", Json.num_of_int p.Experiments.ts_min_deliveries);
      ("degradation_live", Json.Bool p.Experiments.ts_degradation_live);
      ("passed", Json.Bool p.Experiments.ts_passed);
    ]

(* The two ablations' claims: silencing the failed pair saves messages,
   and SC's latency follows the pair link's delay up. *)
let ablation_verdicts ~dumb_process ~pair_link =
  let messages optimised =
    List.find_map
      (fun (p : Experiments.dumb_point) ->
        if p.Experiments.dp_optimised = optimised then Some p.Experiments.dp_messages
        else None)
      dumb_process
  in
  (* Rows come in increasing-delay order. *)
  let rec rising = function
    | (a : Experiments.pair_link_point) :: (b :: _ as rest) -> (
      match (a.Experiments.pl_latency_ms, b.Experiments.pl_latency_ms) with
      | Some la, Some lb -> la < lb && rising rest
      | _ -> false)
    | _ -> true
  in
  (match dumb_process with
  | [] -> []
  | _ ->
    [
      ( "ablation: fewer messages with the dumb-process optimisation on",
        match (messages true, messages false) with
        | Some on, Some off -> on < off
        | _ -> false );
    ])
  @
  match pair_link with
  | [] -> []
  | _ ->
    [ ("ablation: SC latency rises strictly with the pair-link delay", rising pair_link) ]

let json_of_dumb_point (p : Experiments.dumb_point) =
  Json.Obj
    [
      ("optimised", Json.Bool p.Experiments.dp_optimised);
      ("messages", Json.num_of_int p.Experiments.dp_messages);
      ("throughput_rps", Json.Num p.Experiments.dp_throughput_rps);
    ]

let json_of_pair_link_point (p : Experiments.pair_link_point) =
  Json.Obj
    [
      ("delay_ms", Json.num_of_int p.Experiments.pl_delay_ms);
      ( "latency_ms",
        match p.Experiments.pl_latency_ms with
        | Some v -> Json.Num v
        | None -> Json.Null );
    ]

let json_of_modexp (points : Experiments.modexp_point list) =
  Json.List
    (List.map
       (fun (p : Experiments.modexp_point) ->
         Json.Obj
           [
             ("bits", Json.num_of_int p.Experiments.mx_bits);
             ("montgomery_ms", Json.Num p.Experiments.mx_montgomery_ms);
             ("knuth_ms", Json.Num p.Experiments.mx_knuth_ms);
           ])
       points)

let json_of_verdicts verdicts =
  Json.List
    (List.map
       (fun (name, pass) ->
         Json.Obj [ ("name", Json.Str name); ("pass", Json.Bool pass) ])
       verdicts)

let make ~seed ~fast ~fig4_5 ?fig6 ?message_counts ?recovery ?storage
    ?(modexp = []) ?(timing = []) ?(dumb_process = []) ?(pair_link = [])
    ~breakdowns () =
  let verdicts =
    Report.shape_check_results fig4_5
    @ phase_verdicts breakdowns @ mac_verdicts breakdowns
    @ modexp_verdicts modexp @ timing_verdicts timing
    @ ablation_verdicts ~dumb_process ~pair_link
  in
  Json.Obj
    [
      ("schema_version", Json.num_of_int schema_version);
      ("generator", Json.Str "sof-bench");
      ("seed", Json.num_of_int (Int64.to_int seed));
      ("fast", Json.Bool fast);
      ( "figures",
        Json.Obj
          [
            ("fig4_5", Json.List (List.map json_of_series fig4_5));
            ( "fig6",
              match fig6 with
              | Some series -> Json.List (List.map json_of_failover_series series)
              | None -> Json.Null );
            ( "message_counts",
              match message_counts with
              | Some rows ->
                Json.List
                  (List.map
                     (fun (label, msgs, bytes) ->
                       Json.Obj
                         [
                           ("protocol", Json.Str label);
                           ("messages", Json.num_of_int msgs);
                           ("bytes", Json.num_of_int bytes);
                         ])
                     rows)
              | None -> Json.Null );
          ] );
      ("phases", Json.List (List.map json_of_breakdown breakdowns));
      ( "recovery",
        match recovery with
        | Some rows -> Json.List (List.map json_of_recovery rows)
        | None -> Json.Null );
      ( "storage",
        match storage with
        | Some rows -> Json.List (List.map json_of_storage_row rows)
        | None -> Json.Null );
      ("modexp", json_of_modexp modexp);
      ( "timing",
        match timing with
        | [] -> Json.Null
        | points -> Json.List (List.map json_of_timeout_point points) );
      ( "ablations",
        match (dumb_process, pair_link) with
        | [], [] -> Json.Null
        | _ ->
          Json.Obj
            [
              ("dumb_process", Json.List (List.map json_of_dumb_point dumb_process));
              ("pair_link", Json.List (List.map json_of_pair_link_point pair_link));
            ] );
      ("verdicts", json_of_verdicts verdicts);
    ]
