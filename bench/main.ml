(* Benchmark harness.

   Part 1 — Bechamel micro-benchmarks of the substrate: digests, HMAC, real
   RSA/DSA, bignum kernels, message codec.

   Part 2 — regeneration of every table/figure in the paper's evaluation
   (Section 5): Figures 4(a–c), 5(a–c), 6, the f=3 trends discussed in the
   text, and the message-overhead comparison, plus two ablations (the
   dumb-process optimisation and pair-link delay sensitivity).

   Set SOF_BENCH_FAST=1 to run a reduced sweep (useful in CI). *)

module Scheme = Sof_crypto.Scheme
module Simtime = Sof_sim.Simtime
module H = Sof_harness
open Bechamel
open Toolkit

let fast = Sys.getenv_opt "SOF_BENCH_FAST" <> None

(* ----------------------------------------------------- micro-benchmarks *)

let payload_1k = String.init 1024 (fun i -> Char.chr (i land 0xff))

let rng = Sof_util.Rng.create 42L

let rsa_key = Sof_crypto.Rsa.generate rng ~bits:512
let rsa_pub = Sof_crypto.Rsa.public_of_secret rsa_key
let rsa_sig = Sof_crypto.Rsa.sign rsa_key ~alg:Sof_crypto.Digest_alg.MD5 payload_1k

let dsa_params = Sof_crypto.Dsa.generate_params rng ~pbits:512 ~qbits:160
let dsa_key = Sof_crypto.Dsa.generate_key rng dsa_params
let dsa_pub = Sof_crypto.Dsa.public_of_secret dsa_key
let dsa_sig = Sof_crypto.Dsa.sign rng dsa_key ~alg:Sof_crypto.Digest_alg.SHA1 payload_1k

let big_a = Sof_crypto.Bignum.random_bits rng 1024
let big_b = Sof_crypto.Bignum.random_bits rng 1024
let big_m =
  Sof_crypto.Bignum.add (Sof_crypto.Bignum.random_bits rng 1024) Sof_crypto.Bignum.one

let sample_order_envelope =
  let keys =
    List.init 10 (fun i -> { Sof_smr.Request.client = i mod 4; client_seq = i })
  in
  Sof_protocol.Message.forge ~sender:0 ~signature:(String.make 32 's')
    ~endorsement:(5, String.make 32 'e')
    (Sof_protocol.Message.Order
       { c = 1; info = { Sof_protocol.Message.o = 42; digest = String.make 16 'x'; keys } })

let sample_order_bytes = Sof_protocol.Message.encode sample_order_envelope

let micro_tests =
  Test.make_grouped ~name:"micro"
    [
      Test.make ~name:"md5-1k" (Staged.stage (fun () -> Sof_crypto.Md5.digest payload_1k));
      Test.make ~name:"sha1-1k" (Staged.stage (fun () -> Sof_crypto.Sha1.digest payload_1k));
      Test.make ~name:"sha256-1k"
        (Staged.stage (fun () -> Sof_crypto.Sha256.digest payload_1k));
      Test.make ~name:"hmac-sha256-1k"
        (Staged.stage (fun () ->
             Sof_crypto.Hmac.mac ~alg:Sof_crypto.Digest_alg.SHA256 ~key:"key" payload_1k));
      Test.make ~name:"rsa512-sign"
        (Staged.stage (fun () ->
             Sof_crypto.Rsa.sign rsa_key ~alg:Sof_crypto.Digest_alg.MD5 payload_1k));
      Test.make ~name:"rsa512-verify"
        (Staged.stage (fun () ->
             Sof_crypto.Rsa.verify rsa_pub ~alg:Sof_crypto.Digest_alg.MD5
               ~msg:payload_1k ~signature:rsa_sig));
      Test.make ~name:"dsa512-verify"
        (Staged.stage (fun () ->
             Sof_crypto.Dsa.verify dsa_pub ~alg:Sof_crypto.Digest_alg.SHA1
               ~msg:payload_1k ~signature:dsa_sig));
      Test.make ~name:"bignum-mul-1024"
        (Staged.stage (fun () -> Sof_crypto.Bignum.mul big_a big_b));
      Test.make ~name:"bignum-divmod-1024"
        (Staged.stage (fun () -> Sof_crypto.Bignum.divmod (Sof_crypto.Bignum.mul big_a big_b) big_m));
      Test.make ~name:"message-encode"
        (Staged.stage (fun () -> Sof_protocol.Message.encode sample_order_envelope));
      Test.make ~name:"message-decode"
        (Staged.stage (fun () -> Sof_protocol.Message.decode sample_order_bytes));
    ]

let run_micro () =
  print_endline "==============================================================";
  print_endline "Part 1: substrate micro-benchmarks (bechamel, monotonic clock)";
  print_endline "==============================================================";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let quota = Time.second (if fast then 0.25 else 1.0) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] micro_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%-28s %16s %8s\n" "benchmark" "ns/op" "r^2";
  List.iter
    (fun (name, ols_result) ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Printf.sprintf "%.1f" e
        | _ -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      Printf.printf "%-28s %16s %8s\n" name est r2)
    rows;
  flush stdout

(* ------------------------------------------------------ figure harness *)

let intervals = if fast then [ 40; 100; 200; 500 ] else H.Experiments.default_intervals_ms

let fig6_targets = if fast then [ 15; 45; 75 ] else [ 15; 30; 45; 60; 75 ]

let banner s =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" s;
  Printf.printf "==============================================================\n%!"

let run_fig45 tag scheme =
  let series = H.Experiments.fig4_5 ~intervals_ms:intervals ~scheme () in
  H.Report.print_fig4
    ~title:
      (Printf.sprintf "Figure 4%s: order latency (ms) vs batching interval, f=2, %s" tag
         scheme.Scheme.name)
    series;
  H.Report.print_fig5
    ~title:
      (Printf.sprintf "Figure 5%s: throughput (req/s) vs batching interval, f=2, %s" tag
         scheme.Scheme.name)
    series;
  H.Report.print_shape_checks series

let run_fig6 () =
  banner "Figure 6: fail-over latency vs BackLog size (SC and SCR)";
  List.iter
    (fun scheme ->
      let series = H.Experiments.fig6 ~targets:fig6_targets ~scheme () in
      H.Report.print_fig6
        ~title:(Printf.sprintf "Figure 6 (%s)" scheme.Scheme.name)
        series)
    Scheme.paper_schemes

let run_f3 () =
  banner "Section 5 text: f=3 trends (latency up, saturation earlier)";
  let series =
    H.Experiments.fig4_5 ~f:3 ~intervals_ms:intervals ~scheme:Scheme.md5_rsa1024 ()
  in
  H.Report.print_fig4 ~title:"f=3: order latency (ms) vs batching interval, md5-rsa1024"
    series;
  H.Report.print_fig5 ~title:"f=3: throughput (req/s) vs batching interval, md5-rsa1024"
    series;
  H.Report.print_shape_checks series

let run_msgs () =
  banner "Message overhead (fail-free, same workload)";
  H.Report.print_message_counts (H.Experiments.message_counts ());
  (* Per-type census: SC has no prepare phase — the structural reason for
     its smaller overhead (paper Figure 3). *)
  let census kind =
    let spec =
      {
        (H.Cluster.default_spec ~kind ~f:2) with
        H.Cluster.batching_interval = Simtime.ms 100;
        pair_delay_estimate = Simtime.sec 30;
        heartbeat_interval = Simtime.sec 3600;
      }
    in
    let cluster = H.Cluster.build spec in
    let census = H.Census.attach cluster in
    H.Workload.install cluster (H.Workload.make ~rate_per_sec:200.0 ())
      ~duration:(Simtime.sec 5);
    H.Cluster.run cluster ~until:(Simtime.sec 6);
    census
  in
  Format.printf "@.SC message census (f=2, 5s):@.%a" H.Census.pp
    (census H.Cluster.Sc_protocol);
  Format.printf "@.BFT message census (f=2, 5s):@.%a%!" H.Census.pp
    (census H.Cluster.Bft_protocol)

let run_thresholds () =
  banner "Saturation thresholds (smallest steady-state batching interval)";
  Printf.printf "%-14s %12s %12s   %s\n" "scheme" "SC (ms)" "BFT (ms)" "paper: BFT threshold larger";
  List.iter
    (fun scheme ->
      let sc = H.Experiments.saturation_threshold ~scheme H.Cluster.Sc_protocol in
      let bft = H.Experiments.saturation_threshold ~scheme H.Cluster.Bft_protocol in
      Printf.printf "%-14s %12d %12d   [%s]\n%!" scheme.Scheme.name sc bft
        (if bft >= sc then "PASS" else "FAIL"))
    Scheme.paper_schemes

(* ---------------------------------------------------------- ablations *)

(* Ablation 1: SC's dumb-process optimisation.  Compare the post-fail-over
   ack quorum traffic with the optimisation on and off. *)
let run_ablation_dumb () =
  banner "Ablation: SC dumb-process optimisation (post-fail-over messages)";
  let run dumb_optimization =
    let spec =
      {
        (H.Cluster.default_spec ~kind:H.Cluster.Sc_protocol ~f:2) with
        H.Cluster.batching_interval = Simtime.ms 50;
        pair_delay_estimate = Simtime.ms 200;
        heartbeat_interval = Simtime.sec 3600;
        faults = [ (0, Sof_protocol.Fault.Corrupt_digest_at 3) ];
        dumb_optimization;
      }
    in
    let cluster = H.Cluster.build spec in
    H.Workload.install cluster (H.Workload.make ~rate_per_sec:300.0 ()) ~duration:(Simtime.sec 8);
    H.Cluster.run cluster ~until:(Simtime.sec 9);
    let s = Sof_net.Network.stats (H.Cluster.network cluster) in
    let p = H.Metrics.analyze cluster ~warmup:(Simtime.sec 2) ~window:(Simtime.sec 6) in
    (s.Sof_net.Network.messages_sent, p.H.Metrics.throughput_rps)
  in
  let m_on, thr_on = run true in
  let m_off, thr_off = run false in
  Printf.printf "%-28s %14s %14s\n" "" "messages" "throughput";
  Printf.printf "%-28s %14d %14.1f\n" "optimisation on" m_on thr_on;
  Printf.printf "%-28s %14d %14.1f\n" "optimisation off" m_off thr_off;
  Printf.printf "  [%s] fewer messages with the optimisation on\n"
    (if m_on < m_off then "PASS" else "FAIL")

(* Ablation 2: pair-link delay sensitivity — SC's phase 1 is 1-to-1 over the
   pair link; slowing that link should show up ~1:1 in order latency. *)
let run_ablation_pair_link () =
  banner "Ablation: SC sensitivity to the pair-link delay";
  let latency pair_link_ms =
    let spec =
      {
        (H.Cluster.default_spec ~kind:H.Cluster.Sc_protocol ~f:2) with
        H.Cluster.scheme = Scheme.md5_rsa1024;
        batching_interval = Simtime.ms 200;
        pair_delay_estimate = Simtime.sec 30;
        heartbeat_interval = Simtime.sec 3600;
        pair_link = Sof_net.Delay_model.Constant (Simtime.ms pair_link_ms);
      }
    in
    let cluster = H.Cluster.build spec in
    H.Workload.install cluster (H.Workload.make ~rate_per_sec:200.0 ()) ~duration:(Simtime.sec 8);
    H.Cluster.run cluster ~until:(Simtime.sec 9);
    let p = H.Metrics.analyze cluster ~warmup:(Simtime.sec 2) ~window:(Simtime.sec 6) in
    match p.H.Metrics.latency with
    | Some l -> l.Sof_util.Statistics.mean
    | None -> nan
  in
  Printf.printf "%-28s %14s\n" "pair link delay" "SC latency(ms)";
  List.iter
    (fun d -> Printf.printf "%-28s %14.2f\n" (Printf.sprintf "%d ms" d) (latency d))
    [ 0; 2; 5; 10 ]

(* Ablation 3: the delay estimate as a correctness knob.  One pinned gray
   straggler campaign against SC, replayed at several static multiples of
   the base estimate and once under the adaptive estimator: premature
   fail-signals fall to zero as the static multiple clears the surge's
   peak RTT, and the adaptive row gets there without the oracle value. *)
let run_timeout_sensitivity () =
  banner "Ablation: timeout sensitivity (premature signals vs delay estimate)";
  let multipliers = if fast then [ 0.5; 1.0; 4.0 ] else [ 0.25; 0.5; 1.0; 2.0; 4.0 ] in
  Printf.printf "%-14s %12s %14s %10s %16s\n" "estimate" "(ms)" "fail-signals"
    "installs" "min deliveries";
  List.iter
    (fun (p : H.Experiments.timeout_point) ->
      Printf.printf "%-14s %12.0f %14d %10d %16d%s\n" p.H.Experiments.ts_label
        p.H.Experiments.ts_estimate_ms p.H.Experiments.ts_fail_signals
        p.H.Experiments.ts_installs p.H.Experiments.ts_min_deliveries
        (if p.H.Experiments.ts_degradation_live then "" else "  (stalled)"))
    (H.Experiments.timeout_sensitivity ~multipliers ());
  flush stdout

let () =
  run_micro ();
  banner "Part 2: paper evaluation reproduction";
  run_fig45 "a" Scheme.md5_rsa1024;
  run_fig45 "b" Scheme.md5_rsa1536;
  run_fig45 "c" Scheme.sha1_dsa1024;
  run_fig6 ();
  run_f3 ();
  run_thresholds ();
  run_msgs ();
  run_ablation_dumb ();
  run_ablation_pair_link ();
  run_timeout_sensitivity ();
  print_newline ()
