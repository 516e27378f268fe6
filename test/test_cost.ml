(* The golden cost table: host-independent crypto charges per protocol.

   Each row runs one seed-1 fail-free cluster at f = 2 on the steady
   benchmark's settings (md5-rsa1024 cost table, 100 ms batching, 1 KB
   batches, 30 s pair estimate, no heartbeats), 400 req/s for 2 s, run to
   3 s, and records the whole cluster's crypto counters: scheme signs and
   verifies, verifies answered by the amortization cache, MAC-vector
   operations and digested bytes.  The three auth variants are the plain
   signed wire, signed with [amortize_verify], and MAC authenticator
   vectors.  A second table, the recovery rows below, pins the traffic
   of probes, checkpoints and state transfer and the write-ahead log.  A
   change that moves a count re-records cost.golden and says why; a
   host-side speedup must leave it byte-identical. *)

module Simtime = Sof_sim.Simtime
module H = Sof_harness
module Cluster = H.Cluster

type variant = Signed | Amortized | Mac

let variant_name = function Signed -> "sign" | Amortized -> "amortized" | Mac -> "mac"

let spec ~kind variant =
  let base =
    {
      (Cluster.default_spec ~kind ~f:2) with
      Cluster.scheme = Sof_crypto.Scheme.md5_rsa1024;
      batching_interval = Simtime.ms 100;
      batch_size_limit = 1024;
      pair_delay_estimate = Simtime.sec 30;
      heartbeat_interval = Simtime.sec 3600;
    }
  in
  match variant with
  | Signed -> base
  | Amortized -> { base with Cluster.amortize_verify = true }
  | Mac -> { base with Cluster.auth = Sof_crypto.Keyring.Mac }

let row ~kind variant =
  let c = Cluster.build (spec ~kind variant) in
  H.Workload.install c (H.Workload.make ~rate_per_sec:400.0 ()) ~duration:(Simtime.sec 2);
  Cluster.run c ~until:(Simtime.sec 3);
  let batches =
    List.length
      (List.filter
         (function _, _, Sof_protocol.Context.Batched _ -> true | _ -> false)
         (Cluster.events c))
  in
  let k = Cluster.total_crypto_counts c in
  Printf.sprintf "%-4s %-9s %7d %7d %8d %7d %7d %12d"
    (Sof_protocol.Replica.name kind) (variant_name variant) batches k.H.Trace.signs
    k.H.Trace.verifies k.H.Trace.verify_cached k.H.Trace.hmacs k.H.Trace.digest_bytes

let header =
  Printf.sprintf "%-4s %-9s %7s %7s %8s %7s %7s %12s" "#" "auth" "batches" "signs"
    "verifies" "cached" "hmacs" "digest_bytes"

let actual () =
  header
  :: List.concat_map
       (fun kind -> List.map (row ~kind) [ Signed; Amortized; Mac ])
       Cluster.[ Sc_protocol; Scr_protocol; Bft_protocol; Ct_protocol ]

(* The recovery rows: a seed-1 f = 1 slice that runs the traffic the
   fail-free rows never do.  Checkpoints every 8 deliveries over durable
   logs, adaptive timing with 50 ms batching and heartbeats and a 400 ms
   pair estimate, 150 req/s for 5 s.  The highest-numbered non-shadow
   replica crashes at 1 s and restarts at 2 s; process 0, the first
   coordinator, crashes at 3 s; the run ends at 6 s.  Each row records the
   batches minted, messages and bytes of the probe, checkpoint and
   state-transfer tags, and the write-ahead log's appends and syncs. *)

let recovery_tags = [ "probe"; "probe_reply"; "checkpoint"; "state_request"; "state_response" ]

let recovery_row kind =
  let c =
    Cluster.build
      {
        (Cluster.default_spec ~kind ~f:1) with
        Cluster.batching_interval = Simtime.ms 50;
        heartbeat_interval = Simtime.ms 50;
        pair_delay_estimate = Simtime.ms 400;
        checkpoint_interval = 8;
        durable = true;
        timing = Sof_protocol.Config.Adaptive;
      }
  in
  let at s f = ignore (Sof_sim.Engine.schedule_at (Cluster.engine c) ~at:(Simtime.sec s) f) in
  let last = Sof_protocol.Config.replica_count (Cluster.config c) - 1 in
  H.Workload.install c (H.Workload.make ~rate_per_sec:150.0 ()) ~duration:(Simtime.sec 5);
  at 1 (fun () -> Cluster.crash c last);
  at 2 (fun () -> Cluster.restart c last);
  at 3 (fun () -> Cluster.crash c 0);
  Cluster.run c ~until:(Simtime.sec 6);
  let batches =
    List.length
      (List.filter
         (function _, _, Sof_protocol.Context.Batched _ -> true | _ -> false)
         (Cluster.events c))
  in
  let sends = Cluster.total_send_counts c in
  let tag name =
    match List.find_opt (fun (m : H.Trace.msg_count) -> String.equal m.H.Trace.tag name) sends with
    | Some m -> Printf.sprintf " %5d %7d" m.H.Trace.msgs m.H.Trace.bytes
    | None -> Printf.sprintf " %5d %7d" 0 0
  in
  let appends, syncs =
    match Cluster.storage_totals c with
    | Some sg -> (sg.Cluster.sg_appends, sg.Cluster.sg_syncs)
    | None -> (0, 0)
  in
  Printf.sprintf "%-4s %-9s %7d%s %7d %7d" (Sof_protocol.Replica.name kind) "recovery" batches
    (String.concat "" (List.map tag recovery_tags))
    appends syncs

let recovery_header =
  Printf.sprintf "%-4s %-9s %7s%s %7s %7s" "#" "slice" "batches"
    (String.concat ""
       (List.map (fun t -> Printf.sprintf " %13s" t) recovery_tags))
    "appends" "syncs"

let actual () =
  actual ()
  @ recovery_header
    :: List.map recovery_row Cluster.[ Sc_protocol; Scr_protocol; Bft_protocol; Ct_protocol ]

let test_matches_golden () =
  let actual = actual () in
  let golden = Test_bench_doc.read_lines "cost.golden" in
  let out = Filename.concat (Filename.get_temp_dir_name ()) "cost.actual" in
  if actual <> golden then begin
    let oc = open_out out in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc
  end;
  Alcotest.(check (list string))
    (Printf.sprintf "crypto rows (diff %s against test/cost.golden)" out)
    golden actual

let suite =
  [ ("cost.golden", [ Alcotest.test_case "crypto rows" `Slow test_matches_golden ]) ]
