(* Adaptive timing and the gray-failure layer.

   Three levels: the Jacobson delay estimator alone (unit/property tests on
   convergence, backoff and the pure [backed_off] arithmetic), the delay
   models it estimates (statistical checks that sampling matches the
   declared means and that [scale] does what the surge injector assumes),
   and whole gray campaigns (the acceptance assertion of this layer: on the
   same seeded straggler schedule, static SC accuses a healthy pair while
   adaptive SC rides the surge out with zero suspicion churn). *)

module H = Sof_harness
module Simtime = Sof_sim.Simtime
module Estimator = Sof_net.Delay_estimator
module Delay_model = Sof_net.Delay_model
module P = Sof_protocol

(* ----------------------------------------------------- delay estimator *)

let test_estimator_initial_state () =
  let e = Estimator.create ~initial:(Simtime.ms 400) () in
  Alcotest.(check int) "no samples" 0 (Estimator.samples e);
  Alcotest.(check int) "timeout is the configured initial"
    (Simtime.to_ns (Simtime.ms 400))
    (Simtime.to_ns (Estimator.timeout e));
  Alcotest.(check (option int)) "no percentile before samples" None
    (Option.map Simtime.to_ns (Estimator.percentile e 0.5))

let test_estimator_first_sample () =
  let e = Estimator.create ~initial:(Simtime.ms 400) () in
  Estimator.observe e (Simtime.ms 20);
  Alcotest.(check int) "srtt = sample"
    (Simtime.to_ns (Simtime.ms 20))
    (Simtime.to_ns (Estimator.srtt e));
  Alcotest.(check int) "rttvar = sample/2"
    (Simtime.to_ns (Simtime.ms 10))
    (Simtime.to_ns (Estimator.rttvar e))

let test_estimator_converges () =
  let e = Estimator.create ~initial:(Simtime.ms 400) () in
  for _ = 1 to 200 do
    Estimator.observe e (Simtime.ms 50)
  done;
  let srtt_ms = Simtime.to_ms (Estimator.srtt e) in
  Alcotest.(check bool) "srtt converges to the stationary delay" true
    (srtt_ms > 45.0 && srtt_ms < 55.0);
  (* Constant samples starve the deviation term, so the deadline collapses
     toward the delay itself — far below the 400 ms it started from. *)
  Alcotest.(check bool) "deadline tracks the link, not the initial" true
    (Simtime.to_ms (Estimator.timeout e) < 100.0)

let test_estimator_reconverges_after_surge () =
  let e = Estimator.create ~initial:(Simtime.ms 400) () in
  for _ = 1 to 100 do
    Estimator.observe e (Simtime.ms 10)
  done;
  let calm = Simtime.to_ms (Estimator.timeout e) in
  for _ = 1 to 50 do
    Estimator.observe e (Simtime.ms 200)
  done;
  let surged = Simtime.to_ms (Estimator.timeout e) in
  Alcotest.(check bool) "surge lifts the deadline past the new delay" true
    (surged > 200.0);
  for _ = 1 to 300 do
    Estimator.observe e (Simtime.ms 10)
  done;
  let healed = Simtime.to_ms (Estimator.timeout e) in
  Alcotest.(check bool) "deadline re-converges after the surge clears" true
    (healed < calm *. 2.0 && healed < 50.0)

let test_estimator_backoff_cap () =
  let e = Estimator.create ~initial:(Simtime.ms 100) () in
  Estimator.backoff e;
  Estimator.backoff e;
  Alcotest.(check int) "two backoffs quadruple the deadline"
    (Simtime.to_ns (Simtime.ms 400))
    (Simtime.to_ns (Estimator.timeout e));
  for _ = 1 to 40 do
    Estimator.backoff e
  done;
  (* Default cap is 64 x initial: 42 doublings must saturate there, not
     overflow. *)
  Alcotest.(check int) "backoff saturates at the cap"
    (Simtime.to_ns (Simtime.ms 6400))
    (Simtime.to_ns (Estimator.timeout e));
  Estimator.reset_backoff e;
  Alcotest.(check int) "reset drops the multiplier" 0 (Estimator.backoff_level e);
  Alcotest.(check int) "deadline back to the initial"
    (Simtime.to_ns (Simtime.ms 100))
    (Simtime.to_ns (Estimator.timeout e))

let test_backed_off_arithmetic () =
  let base = Simtime.ms 100 and cap = Simtime.sec 10 in
  Alcotest.(check int) "level 0 is the base"
    (Simtime.to_ns base)
    (Simtime.to_ns (Estimator.backed_off base ~level:0 ~cap));
  Alcotest.(check int) "level 3 is 8x"
    (Simtime.to_ns (Simtime.ms 800))
    (Simtime.to_ns (Estimator.backed_off base ~level:3 ~cap));
  Alcotest.(check int) "deep level clamps to the cap, no overflow"
    (Simtime.to_ns cap)
    (Simtime.to_ns (Estimator.backed_off base ~level:200 ~cap));
  (* The cap is the hard bound: if a caller hands a cap below its base the
     cap still wins — backoff must never push a timer past it. *)
  Alcotest.(check int) "cap wins even below the base"
    (Simtime.to_ns (Simtime.ms 10))
    (Simtime.to_ns (Estimator.backed_off base ~level:5 ~cap:(Simtime.ms 10)))

let test_estimator_percentile () =
  let e = Estimator.create ~initial:(Simtime.ms 100) () in
  List.iter (fun m -> Estimator.observe e (Simtime.ms m)) [ 3; 1; 4; 1; 5; 9; 2; 6 ];
  Alcotest.(check (option int)) "p=1.0 is the window maximum"
    (Some (Simtime.to_ns (Simtime.ms 9)))
    (Option.map Simtime.to_ns (Estimator.percentile e 1.0));
  let median =
    match Estimator.percentile e 0.5 with
    | Some v -> Simtime.to_ms v
    | None -> Alcotest.fail "median missing"
  in
  Alcotest.(check bool) "median inside the sample range" true
    (median >= 1.0 && median <= 9.0)

let test_estimator_rejects_bad_args () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "window < 1 rejected" true
    (invalid (fun () -> Estimator.create ~window:0 ~initial:(Simtime.ms 1) ()));
  Alcotest.(check bool) "non-positive initial rejected" true
    (invalid (fun () -> Estimator.create ~initial:Simtime.zero ()));
  Alcotest.(check bool) "cap below floor rejected" true
    (invalid (fun () ->
         Estimator.create ~floor:(Simtime.ms 10) ~cap:(Simtime.ms 1)
           ~initial:(Simtime.ms 5) ()))

let prop_estimator_timeout_bounded =
  QCheck.Test.make ~name:"timeout stays within [floor, cap] for any samples"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 2000))
    (fun samples_ms ->
      let floor = Simtime.us 100 and cap = Simtime.sec 4 in
      let e = Estimator.create ~floor ~cap ~initial:(Simtime.ms 400) () in
      List.for_all
        (fun m ->
          Estimator.observe e (Simtime.ms m);
          if m mod 3 = 0 then Estimator.backoff e;
          let d = Estimator.timeout e in
          Simtime.compare d floor >= 0 && Simtime.compare d cap <= 0)
        samples_ms)

(* ---------------------------------------------- delay model statistics *)

let sample_mean_ms model ~size ~n seed =
  let rng = Sof_util.Rng.create seed in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Simtime.to_ms (Delay_model.sample model rng ~size)
  done;
  !total /. float_of_int n

let test_delay_model_means () =
  (* The declared mean is what the estimator converges to and what surge
     calibration arithmetic uses: sampling must agree with it. *)
  List.iter
    (fun model ->
      let declared = Simtime.to_ms (Delay_model.mean model ~size:200) in
      let measured = sample_mean_ms model ~size:200 ~n:20_000 11L in
      Alcotest.(check bool)
        (Format.asprintf "sample mean ~ declared mean (%a)" Delay_model.pp model)
        true
        (abs_float (measured -. declared) < 0.05 *. declared))
    [
      Delay_model.lan_default;
      Delay_model.pair_link_default;
      Delay_model.Uniform { lo = Simtime.ms 1; hi = Simtime.ms 3 };
    ]

let test_delay_model_scale () =
  let model = Delay_model.lan_default in
  let scaled = Delay_model.scale model 8.0 in
  (* [scale] multiplies the latency terms only: at size 0 the mean scales
     exactly; the per-byte serialisation cost must not be touched. *)
  Alcotest.(check int) "latency components scale linearly"
    (8 * Simtime.to_ns (Delay_model.mean model ~size:0))
    (Simtime.to_ns (Delay_model.mean scaled ~size:0));
  let per_byte m =
    Simtime.to_ns (Delay_model.mean m ~size:1000)
    - Simtime.to_ns (Delay_model.mean m ~size:0)
  in
  Alcotest.(check int) "per-byte cost unscaled" (per_byte model) (per_byte scaled);
  let base = sample_mean_ms model ~size:100 ~n:5_000 3L in
  let surged = sample_mean_ms scaled ~size:100 ~n:5_000 3L in
  Alcotest.(check bool) "scaled samples are slower in distribution" true
    (surged > 4.0 *. base)

(* ------------------------------------------------------- gray campaigns *)

let duration = Simtime.sec 12

let gray ?(slow_disks = false) ~timing ~kind seed =
  let layers =
    H.Nemesis.Gray timing :: (if slow_disks then [ H.Nemesis.Durable ] else [])
  in
  H.Nemesis.run ~layers ~kind ~f:1 ~seed ~duration ()

let churn (r : H.Nemesis.report) =
  let fail_signals, view_changes, rotations = r.H.Nemesis.churn in
  fail_signals + view_changes + rotations

(* The acceptance assertion: on the same seeded straggler schedule the
   static estimate accuses the healthy-but-slow pair, and the adaptive
   estimator does not — while every safety and liveness invariant holds. *)
let test_static_vs_adaptive seed () =
  let static = gray ~timing:P.Config.Static ~kind:H.Cluster.Sc_protocol seed in
  Alcotest.(check bool) "static SC emits premature fail-signals" true
    (static.H.Nemesis.signals.H.Metrics.fa_total > 0);
  let adaptive = gray ~timing:P.Config.Adaptive ~kind:H.Cluster.Sc_protocol seed in
  Alcotest.(check int) "adaptive SC: zero suspicion churn" 0 (churn adaptive);
  Alcotest.(check bool) "adaptive SC: all invariants hold" true
    adaptive.H.Nemesis.passed;
  Alcotest.(check bool) "adaptive SC keeps delivering" true
    (adaptive.H.Nemesis.min_honest_deliveries > 0)

let test_adaptive_other_protocols () =
  List.iter
    (fun (kind, seed) ->
      let r = gray ~timing:P.Config.Adaptive ~kind seed in
      Alcotest.(check int)
        (Format.asprintf "%s: zero churn under gray delay"
           (P.Replica.name kind))
        0 (churn r);
      Alcotest.(check bool)
        (Format.asprintf "%s: campaign passes" (P.Replica.name kind))
        true r.H.Nemesis.passed)
    [
      (H.Cluster.Scr_protocol, 1L);
      (H.Cluster.Scr_protocol, 2L);
      (H.Cluster.Bft_protocol, 1L);
      (H.Cluster.Ct_protocol, 1L);
    ]

let test_degradation_liveness_held () =
  (* Every protocol, several seeds: the degraded window must keep
     delivering even while the straggler ramp is at its peak. *)
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let r = gray ~timing:P.Config.Adaptive ~kind seed in
          let live =
            List.for_all
              (fun (res : H.Invariants.result) ->
                res.H.Invariants.name <> "degradation-liveness"
                || res.H.Invariants.pass)
              r.H.Nemesis.invariants
          in
          Alcotest.(check bool)
            (Format.asprintf "%s seed %Ld: degradation-liveness"
               (P.Replica.name kind) seed)
            true live)
        [ 1L; 3L ])
    [
      H.Cluster.Sc_protocol; H.Cluster.Scr_protocol; H.Cluster.Bft_protocol;
      H.Cluster.Ct_protocol;
    ]

let test_slow_disks () =
  let r =
    gray ~slow_disks:true ~timing:P.Config.Adaptive ~kind:H.Cluster.Sc_protocol 7L
  in
  (match r.H.Nemesis.storage with
  | Some st ->
    Alcotest.(check bool) "slow-sector stalls actually happened" true
      (st.H.Metrics.st_slow_ops > 0)
  | None -> Alcotest.fail "durable gray run lost its storage accounting");
  Alcotest.(check bool) "durable gray campaign passes" true r.H.Nemesis.passed

let test_gray_deterministic () =
  let run () = gray ~timing:P.Config.Adaptive ~kind:H.Cluster.Sc_protocol 1L in
  let a = run () and b = run () in
  Alcotest.(check int) "same deliveries" a.H.Nemesis.min_honest_deliveries
    b.H.Nemesis.min_honest_deliveries;
  Alcotest.(check int) "same network traffic"
    a.H.Nemesis.net.Sof_net.Network.messages_sent
    b.H.Nemesis.net.Sof_net.Network.messages_sent;
  Alcotest.(check int) "same injected actions" a.H.Nemesis.injected
    b.H.Nemesis.injected

let suite =
  [
    ( "gray.estimator",
      [
        Alcotest.test_case "initial state" `Quick test_estimator_initial_state;
        Alcotest.test_case "first sample" `Quick test_estimator_first_sample;
        Alcotest.test_case "converges on a stationary link" `Quick
          test_estimator_converges;
        Alcotest.test_case "re-converges after a surge" `Quick
          test_estimator_reconverges_after_surge;
        Alcotest.test_case "backoff doubles and saturates" `Quick
          test_estimator_backoff_cap;
        Alcotest.test_case "backed_off arithmetic" `Quick test_backed_off_arithmetic;
        Alcotest.test_case "percentile window" `Quick test_estimator_percentile;
        Alcotest.test_case "rejects bad arguments" `Quick
          test_estimator_rejects_bad_args;
        QCheck_alcotest.to_alcotest prop_estimator_timeout_bounded;
      ] );
    ( "gray.delay_model",
      [
        Alcotest.test_case "sampling matches declared means" `Quick
          test_delay_model_means;
        Alcotest.test_case "scale: latency only, distribution follows" `Quick
          test_delay_model_scale;
      ] );
    ( "gray.campaign",
      [
        Alcotest.test_case "static accuses, adaptive rides it out (seed 1)" `Slow
          (test_static_vs_adaptive 1L);
        Alcotest.test_case "static accuses, adaptive rides it out (seed 2)" `Slow
          (test_static_vs_adaptive 2L);
        Alcotest.test_case "static accuses, adaptive rides it out (seed 3)" `Slow
          (test_static_vs_adaptive 3L);
        Alcotest.test_case "adaptive SCR/BFT/CT: zero churn" `Slow
          test_adaptive_other_protocols;
        Alcotest.test_case "degradation-liveness across protocols" `Slow
          test_degradation_liveness_held;
        Alcotest.test_case "slow-sector disks stall but never stop" `Slow
          test_slow_disks;
        Alcotest.test_case "same seed, same campaign" `Slow test_gray_deterministic;
      ] );
  ]
