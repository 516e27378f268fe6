module Simtime = Sof_sim.Simtime
module Statistics = Sof_util.Statistics
module P = Sof_protocol

type point = {
  latency : Statistics.summary option;
  throughput_rps : float;
  batches : int;
  committed_requests : int;
  messages_sent : int;
  bytes_sent : int;
  failover_ms : float option;
}

(* The highest-numbered replica: in SC/SCR layouts the last unpaired
   replica, in BFT a backup, in CT a non-coordinator. *)
let reference_process cluster = P.Config.replica_count (Cluster.config cluster) - 1

let analyze cluster ~warmup ~window =
  let events = Cluster.events cluster in
  let window_end = Simtime.add warmup window in
  let in_window at = Simtime.compare at warmup >= 0 && Simtime.compare at window_end < 0 in
  (* Batch creation instants (coordinator side). *)
  let batch_time : (int, Simtime.t) Hashtbl.t = Hashtbl.create 256 in
  let first_commit : (int, Simtime.t) Hashtbl.t = Hashtbl.create 256 in
  let reference = reference_process cluster in
  let delivered_reqs = ref 0 in
  let first_fail_signal = ref None in
  let first_install = ref None in
  List.iter
    (fun (at, who, event) ->
      match event with
      | P.Context.Batched { seq; _ } ->
        if not (Hashtbl.mem batch_time seq) then Hashtbl.replace batch_time seq at
      | P.Context.Committed { seq; _ } ->
        if not (Hashtbl.mem first_commit seq) then Hashtbl.replace first_commit seq at
      | P.Context.Delivered { seq = _; batch } ->
        if who = reference && in_window at then
          delivered_reqs := !delivered_reqs + P.Batch.request_count batch
      | P.Context.Fail_signal_emitted _ ->
        if !first_fail_signal = None then first_fail_signal := Some at
      | P.Context.Coordinator_installed _ | P.Context.View_installed _ ->
        if !first_install = None then first_install := Some at
      | P.Context.Fail_signal_observed _ | P.Context.Pair_recovered _
      | P.Context.Value_fault_detected _ | P.Context.Span_open _
      | P.Context.Span_close _ | P.Context.Checkpoint_stable _
      | P.Context.Log_truncated _ | P.Context.State_transfer_started _
      | P.Context.State_transfer_installed _
      | P.Context.State_transfer_rejected _ | P.Context.Node_restarted
      | P.Context.Wal_replayed _ ->
        ())
    events;
  let latencies = Statistics.create () in
  Hashtbl.iter
    (fun seq batched_at ->
      if in_window batched_at then
        match Hashtbl.find_opt first_commit seq with
        | Some committed_at when Simtime.compare committed_at batched_at >= 0 ->
          Statistics.add latencies (Simtime.to_ms (Simtime.diff committed_at batched_at))
        | Some _ | None -> ())
    batch_time;
  let stats = Sof_net.Network.stats (Cluster.network cluster) in
  let failover_ms =
    match (!first_fail_signal, !first_install) with
    | Some fs, Some inst when Simtime.compare inst fs >= 0 ->
      Some (Simtime.to_ms (Simtime.diff inst fs))
    | _ -> None
  in
  {
    latency =
      (if Statistics.count latencies = 0 then None
       else Some (Statistics.summarize latencies));
    throughput_rps = float_of_int !delivered_reqs /. Simtime.to_sec window;
    batches = Statistics.count latencies;
    committed_requests = !delivered_reqs;
    messages_sent = stats.Sof_net.Network.messages_sent;
    bytes_sent = stats.Sof_net.Network.bytes_sent;
    failover_ms;
  }

(* ------------------------------------------------ recovery cost *)

type recovery = {
  rc_restarts : int;
  rc_recovered : int;
      (* restarts followed by a local-replay recovery or a state-transfer
         install on the same process *)
  rc_local_replays : int;
  rc_local_recoveries : int;
      (* restarts that recovered from the local write-ahead log alone *)
  rc_transfers_started : int;
  rc_transfers_installed : int;
  rc_transfers_rejected : int;
  rc_checkpoints_stable : int;
  rc_truncations : int;
  rc_mean_recovery_ms : float option;
      (* Node_restarted to that process's recovery completion *)
  rc_max_log_length : int;
}

let recovery_stats cluster =
  let events = Cluster.events cluster in
  let restarts = ref 0 in
  let recovered = ref 0 in
  let local_replays = ref 0 in
  let local_recoveries = ref 0 in
  let started = ref 0 in
  let installed = ref 0 in
  let rejected = ref 0 in
  let stable = ref 0 in
  let truncations = ref 0 in
  let pending : (int, Simtime.t) Hashtbl.t = Hashtbl.create 8 in
  let recovery_ms = Statistics.create () in
  let resolve who at =
    match Hashtbl.find_opt pending who with
    | Some since ->
      incr recovered;
      Statistics.add recovery_ms (Simtime.to_ms (Simtime.diff at since));
      Hashtbl.remove pending who;
      true
    | None -> false
  in
  List.iter
    (fun (at, who, event) ->
      match event with
      | P.Context.Node_restarted ->
        incr restarts;
        Hashtbl.replace pending who at
      | P.Context.Wal_replayed { seq; entries; damaged } ->
        incr local_replays;
        (* A clean replay that restored anything completes the recovery
           locally; a damaged or empty one leaves the restart pending until
           peer state transfer installs. *)
        if (not damaged) && (seq > 0 || entries > 0) && resolve who at then
          incr local_recoveries
      | P.Context.State_transfer_started _ -> incr started
      | P.Context.State_transfer_installed _ ->
        incr installed;
        ignore (resolve who at)
      | P.Context.State_transfer_rejected _ -> incr rejected
      | P.Context.Checkpoint_stable _ -> incr stable
      | P.Context.Log_truncated _ -> incr truncations
      | _ -> ())
    events;
  let max_log = ref 0 in
  for i = 0 to Cluster.process_count cluster - 1 do
    if not (Sof_net.Network.is_crashed (Cluster.network cluster) i) then
      max_log := max !max_log (Cluster.log_length cluster i)
  done;
  {
    rc_restarts = !restarts;
    rc_recovered = !recovered;
    rc_local_replays = !local_replays;
    rc_local_recoveries = !local_recoveries;
    rc_transfers_started = !started;
    rc_transfers_installed = !installed;
    rc_transfers_rejected = !rejected;
    rc_checkpoints_stable = !stable;
    rc_truncations = !truncations;
    rc_mean_recovery_ms =
      (if Statistics.count recovery_ms = 0 then None
       else Some (Statistics.summarize recovery_ms).Statistics.mean);
    rc_max_log_length = !max_log;
  }

(* ------------------------------------------------ fail-signal accounting *)

type signal_accounting = {
  fa_total : int;
  fa_time_domain : int;
  fa_value_domain : int;
  fa_by_pair : (int * int) list;
  fa_installs : int;
}

let signal_accounting cluster =
  let total = ref 0 and time_domain = ref 0 and value_domain = ref 0 in
  let installs = ref 0 in
  let by_pair : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (_, _, event) ->
      match event with
      | P.Context.Fail_signal_emitted { pair; value_domain = vd } ->
        incr total;
        if vd then incr value_domain else incr time_domain;
        (match Hashtbl.find_opt by_pair pair with
        | Some r -> incr r
        | None -> Hashtbl.replace by_pair pair (ref 1))
      | P.Context.Coordinator_installed _ | P.Context.View_installed _ ->
        incr installs
      | _ -> ())
    (Cluster.events cluster);
  {
    fa_total = !total;
    fa_time_domain = !time_domain;
    fa_value_domain = !value_domain;
    fa_by_pair =
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Hashtbl.fold (fun pair r acc -> (pair, !r) :: acc) by_pair []);
    fa_installs = !installs;
  }

let pp_signal_accounting fmt fa =
  Format.fprintf fmt "%d fail-signals (%d time, %d value), %d installs"
    fa.fa_total fa.fa_time_domain fa.fa_value_domain fa.fa_installs;
  List.iter
    (fun (pair, count) -> Format.fprintf fmt ", pair %d: %d" pair count)
    fa.fa_by_pair

(* ------------------------------------------------ phase breakdown *)

type phase_stat = {
  ps_phase : P.Context.phase;
  ps_intervals : int;
  ps_mean_width_ms : float;
  ps_share : float;
  ps_msgs_per_batch : float;
  ps_senders : int;
  ps_wide : bool;
  ps_n_to_n : bool;
}

type breakdown = {
  bd_protocol : string;
  bd_auth : string;
  bd_n : int;
  bd_f : int;
  bd_batches : int;
  bd_mean_batch_ms : float;
  bd_phases : phase_stat list;
  bd_wide_phases : int;
  bd_n_to_n_share : float;
  bd_signs_per_batch : float;
  bd_verifies_per_batch : float;
  bd_hmacs_per_batch : float;
  bd_crypto : Trace.crypto;
  bd_msg_counts : Trace.msg_count list;
}

(* The fail-free critical path of each protocol, in order, with the wire
   tags that carry it.  SC/SCR reuse the Order body for both the 1-to-1
   endorse hop (un-endorsed) and the 2-to-n dissemination (endorsed), so
   the endorsement marker in the tag splits the two. *)
let critical_path kind =
  match kind with
  | Cluster.Sc_protocol | Cluster.Scr_protocol ->
    [
      (P.Context.Endorse_phase, [ "order" ]);
      (P.Context.Order_phase, [ "order+endorsed" ]);
      (P.Context.Ack_phase, [ "ack" ]);
    ]
  | Cluster.Bft_protocol ->
    [
      (P.Context.Pre_prepare_phase, [ "pre_prepare" ]);
      (P.Context.Prepare_phase, [ "prepare" ]);
      (P.Context.Commit_phase, [ "commit" ]);
    ]
  | Cluster.Ct_protocol ->
    [ (P.Context.Order_phase, [ "order" ]); (P.Context.Ack_phase, [ "ack" ]) ]

let phase_breakdown cluster =
  let n = Cluster.process_count cluster in
  let spec = Cluster.spec cluster in
  let rows = Cluster.events cluster in
  let intervals = Trace.intervals rows in
  let same_phase a b =
    String.equal (P.Context.phase_name a) (P.Context.phase_name b)
  in
  let of_phase phase =
    List.filter (fun iv -> same_phase iv.Trace.i_phase phase) intervals
  in
  let mean_width ivs =
    match ivs with
    | [] -> 0.0
    | _ ->
      List.fold_left (fun acc iv -> acc +. Trace.width_ms iv) 0.0 ivs
      /. float_of_int (List.length ivs)
  in
  let batch_ivs = of_phase P.Context.Batch_phase in
  let batches = List.length batch_ivs in
  let mean_batch_ms = mean_width batch_ivs in
  let per_batch x =
    if batches = 0 then 0.0 else float_of_int x /. float_of_int batches
  in
  let tag_msgs counts tags =
    List.fold_left
      (fun acc (mc : Trace.msg_count) ->
        if List.exists (String.equal mc.Trace.tag) tags then acc + mc.Trace.msgs
        else acc)
      0 counts
  in
  let totals = Cluster.total_send_counts cluster in
  let phases =
    List.map
      (fun (phase, tags) ->
        let ivs = of_phase phase in
        let mean = mean_width ivs in
        let msgs = tag_msgs totals tags in
        let senders =
          let count = ref 0 in
          for i = 0 to n - 1 do
            if tag_msgs (Cluster.send_counts cluster i) tags > 0 then incr count
          done;
          !count
        in
        let msgs_per_batch = per_batch msgs in
        (* "Wide": the phase puts a message on the wire for (nearly) every
           process each batch.  "n-to-n": additionally, (nearly) every
           process is a sender — the all-to-all exchanges the paper's
           critical-path argument turns on. *)
        let wide = msgs_per_batch >= float_of_int (n - 1) in
        let n_to_n = wide && senders >= n - 1 in
        {
          ps_phase = phase;
          ps_intervals = List.length ivs;
          ps_mean_width_ms = mean;
          ps_share = (if mean_batch_ms > 0.0 then mean /. mean_batch_ms else 0.0);
          ps_msgs_per_batch = msgs_per_batch;
          ps_senders = senders;
          ps_wide = wide;
          ps_n_to_n = n_to_n;
        })
      (critical_path spec.Cluster.kind)
  in
  let total_msgs =
    List.fold_left (fun acc (mc : Trace.msg_count) -> acc + mc.Trace.msgs) 0 totals
  in
  let n_to_n_msgs =
    List.fold_left
      (fun acc ps ->
        if ps.ps_n_to_n then
          acc + int_of_float (ps.ps_msgs_per_batch *. float_of_int batches)
        else acc)
      0 phases
  in
  let crypto = Cluster.total_crypto_counts cluster in
  {
    bd_protocol = String.uppercase_ascii (P.Replica.name spec.Cluster.kind);
    bd_auth = Sof_crypto.Keyring.auth_name spec.Cluster.auth;
    bd_n = n;
    bd_f = spec.Cluster.f;
    bd_batches = batches;
    bd_mean_batch_ms = mean_batch_ms;
    bd_phases = phases;
    bd_wide_phases = List.length (List.filter (fun ps -> ps.ps_wide) phases);
    bd_n_to_n_share =
      (if total_msgs = 0 then 0.0
       else float_of_int n_to_n_msgs /. float_of_int total_msgs);
    bd_signs_per_batch = per_batch crypto.Trace.signs;
    bd_verifies_per_batch = per_batch crypto.Trace.verifies;
    bd_hmacs_per_batch = per_batch crypto.Trace.hmacs;
    bd_crypto = crypto;
    bd_msg_counts = totals;
  }

let pp_point fmt p =
  (match p.latency with
  | Some l -> Format.fprintf fmt "latency %.2fms (p95 %.2f) " l.Statistics.mean l.Statistics.p95
  | None -> Format.fprintf fmt "latency n/a ");
  Format.fprintf fmt "throughput %.1f req/s over %d batches, %d msgs"
    p.throughput_rps p.batches p.messages_sent;
  match p.failover_ms with
  | Some f -> Format.fprintf fmt ", failover %.2fms" f
  | None -> ()
