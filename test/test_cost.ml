(* The golden cost table: host-independent crypto charges per protocol.

   Each row runs one seed-1 fail-free cluster at f = 2 on the steady
   benchmark's settings (md5-rsa1024 cost table, 100 ms batching, 1 KB
   batches, 30 s pair estimate, no heartbeats), 400 req/s for 2 s, run to
   3 s, and records the whole cluster's crypto counters: scheme signs and
   verifies, verifies answered by the amortization cache, MAC-vector
   operations and digested bytes.  The three auth variants are the plain
   signed wire, signed with [amortize_verify], and MAC authenticator
   vectors.  A change that moves a count re-records cost.golden and says
   why; a host-side speedup must leave it byte-identical. *)

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
