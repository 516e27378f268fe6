(* The repository benchmark.

     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     perf.exe --smoke [--spec BENCHMARK.json]
     perf.exe --record OUT.json [--runs N] [--seed N]
     perf.exe --compare OLD.json NEW.json

   A workload run prints each metric with its unit, then one JSON line
   with the correctness verdict and the metrics; it exits nonzero when a
   correctness check fails.  See README.md for the workloads and metric
   definitions. *)

(* ------------------------------------------------------------ metrics *)

let e2e_metrics =
  [
    ("setup_s", "s");
    ("cpu_us_per_op", "us");
    ("alloc_words_per_op", "words");
    ("peak_live_mb", "MB");
    ("lat_p50_ms", "ms");
    ("lat_p99_ms", "ms");
  ]

let per_protocol suffixes =
  List.concat_map
    (fun p -> List.map (fun (s, u) -> (Printf.sprintf s (Sut.protocol_name p), u)) suffixes)
    Sut.protocols

let phase_metrics =
  List.concat_map
    (fun p ->
      List.map
        (fun ph -> (Printf.sprintf "phase.%s.%s_ms" (Sut.protocol_name p) ph, "ms"))
        (Sim.phase_names p))
    Sut.protocols

let check_model_names = List.map (fun m -> m.Sut.m_name) (Sut.models ~seed:1L ~deep_depth:1)

let layer_metrics =
  [
    ("engine.events_per_req", "count");
    ("engine.ns_per_event", "ns");
    ("engine.pending_max", "count");
    ("net.msgs_per_req", "count");
    ("net.bytes_per_req", "B");
    ("codec.decode_ns_per_msg", "ns");
    ("codec.encode_ns_per_msg", "ns");
    ("codec.words_per_decode", "words");
    ("codec.words_per_encode", "words");
    ("codec.share_est", "fraction");
    ("crypto.signs_per_req", "count");
    ("crypto.verifies_per_req", "count");
    ("crypto.digest_bytes_per_req", "B");
    ("crypto.sign_ns", "ns");
    ("crypto.verify_ns", "ns");
  ]
  @ per_protocol
      [
        ("core.%s.run_s", "s");
        ("core.%s.words_per_req", "words");
        ("core.%s.vlat_p50_ms", "ms");
        ("core.%s.vlat_p99_ms", "ms");
        ("core.%s.outage_ms", "ms");
        ("core.%s.failed_frac", "fraction");
        ("order.%s.batch_wait_ms_p50", "ms");
        ("order.%s.order_ms_p50", "ms");
        ("order.%s.reply_ms_p50", "ms");
        ("order.%s.reqs_per_batch", "count");
      ]
  @ phase_metrics
  @ [
      ("wal.appends_per_req", "count");
      ("wal.syncs_per_req", "count");
      ("wal.checkpoint_writes", "count");
      ("wal.replayed_entries", "count");
      ("wal.append_sync_us", "us");
      ("recovery.local_replays", "count");
      ("recovery.transfers_installed", "count");
      ("checkpoint.stable", "count");
      ("checkpoint.truncations", "count");
      ("recovery.max_log", "count");
      ("harness.events_per_req", "count");
      ("harness.events_call_ms", "ms");
      ("harness.reduce_ms", "ms");
      ("harness.invariants_ms", "ms");
      ("heap.growth_kw_per_vs", "kw/vs");
    ]
  @ List.concat_map
      (fun r ->
        [
          (Printf.sprintf "tcp.r%d.lat_p99_ms" r, "ms");
          (Printf.sprintf "tcp.r%d.failed_frac" r, "fraction");
        ])
      Tcp.ladder_rates
  @ [
      ("tcp.max_rps", "req/s");
      ("runtime.cpu_ms_per_req", "ms");
      ("runtime.idle_cpu_ms_per_s", "ms/s");
      ("runtime.inject_us_p99", "us");
      ("runtime.gen_late_ms_p99", "ms");
      ("runtime.peer_downs", "count");
    ]
  @ List.concat_map
      (fun m -> [ ("check." ^ m ^ ".s", "s"); ("check." ^ m ^ ".states", "count") ])
      check_model_names
  @ [
      ("check.states_per_s", "1/s");
      ("check.replays_per_state", "count");
      ("smr.apply_ns", "ns");
      ("sim_req_per_s", "req/s");
      ("outage_ms", "ms");
      ("check_s", "s");
      ("failed_frac", "fraction");
      ("trace_overhead", "ratio");
    ]

(* ------------------------------------------------------------ sizing *)

type size = {
  steady : Sim.shape;
  steady_rep_s : float;  (** host seconds of one steady rep on the reference host *)
  failover : Sim.shape;
  failover_rep_s : float;
  tcp_rung_s : float;  (** seconds of load per rung *)
  tcp_drain_s : float;
  tcp_rep_s : float;  (** seconds of one rep: load, drain, set-up and stop *)
  tcp_bare_starts : int;  (** extra set-up samples *)
  tcp_rates : int list;
  tcp_idle_s : float;
  deep_depth : int;
  check_models : string list option;  (** [None]: all of them *)
}

let full =
  {
    steady = Sim.steady ~virtual_s:100.0;
    steady_rep_s = 5.0;
    failover = Sim.failover ~follower_down:(5.0, 10.0) ~crash_s:20.0 ~end_s:35.0;
    failover_rep_s = 6.5;
    tcp_rung_s = 2.0;
    tcp_drain_s = 1.0;
    tcp_rep_s = 3.5;
    tcp_bare_starts = 12;
    tcp_rates = Tcp.ladder_rates;
    tcp_idle_s = 1.0;
    deep_depth = 12;
    check_models = None;
  }

let smoke =
  {
    steady = Sim.steady ~virtual_s:2.0;
    steady_rep_s = 1.0;
    failover = Sim.failover ~follower_down:(0.5, 1.0) ~crash_s:2.0 ~end_s:8.0;
    failover_rep_s = 1.0;
    tcp_rung_s = 0.2;
    (* The drain also waits for the slowest replica, which matters under
       dune runtest, where the smoke shares the host with the test suite. *)
    tcp_drain_s = 0.1;
    tcp_rep_s = 1.0;
    tcp_bare_starts = 0;
    tcp_rates = [ 1000 ];
    tcp_idle_s = 0.1;
    deep_depth = 6;
    check_models = Some [ "ct"; "ct_crash1"; "bft_mutant"; "sc_b2" ];
  }

(* ---------------------------------------------------------- workloads *)

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;
  e2e : (string * float) list;  (** all but peak_live_mb, which the process reports *)
  layers : (string * float) list;  (** traced runs only *)
}

(* Reps after the first, while another one fits in the time budget. *)
let more_reps ~seconds ~first_s f =
  let t0 = Spans.now () in
  let rec go n acc =
    let elapsed = first_s +. (Spans.now () -. t0) in
    if elapsed +. (elapsed /. float_of_int n) > seconds then List.rev acc
    else go (n + 1) (f () :: acc)
  in
  go 1 []

let timed f =
  let t0 = Spans.now () in
  let r = f () in
  (r, Spans.now () -. t0)

let medians reps =
  List.map (fun (k, _) -> (k, Stats.median (List.map (List.assoc k) reps))) (List.hd reps)

(* A simulator run does a fixed number of reps, each on arrivals from its
   own sub-seed, so that its virtual results pool several scenarios yet do
   not depend on how fast the host is: [seconds / rep_s] of them, where
   [rep_s] is what one rep takes on the reference host. *)
let sim ~shape ~rep_s ~seed ~seconds ~spans =
  let count = if spans.Spans.on then 1 else max 1 (int_of_float (seconds /. rep_s)) in
  let inputs = List.init count (fun i -> Sim.arrivals ~seed:((seed * 1000) + i) shape) in
  (* Virtual behaviour is deterministic, so one rep's heap is enough. *)
  let reps =
    List.mapi
      (fun i arrivals ->
        Sim.rep ~shape ~arrivals ~spans:Spans.off ~on_payload:ignore ~sample_live:(i = 0))
      inputs
  in
  let first = List.hd reps and arrivals = List.hd inputs in
  let layers, diverged =
    if not spans.Spans.on then ([], [])
    else begin
      let sample = Sim.Sample.create () in
      let traced =
        (Sim.rep ~shape ~arrivals ~spans ~on_payload:(Sim.Sample.observe sample) ~sample_live:false)
          .Sim.runs
      in
      let replay = Sim.replay ~spans ~shape ~arrivals sample in
      ( Sim.layers ~untraced:first.Sim.runs ~traced ~replay,
        if Sim.virts traced = Sim.virts first.Sim.runs then []
        else [ "the traced run's virtual results or counts differ from the untraced run's" ] )
    end
  in
  let runs = List.concat_map (fun r -> r.Sim.runs) reps in
  {
    attempted = List.length Sut.protocols * List.fold_left (fun a r -> a + Array.length r) 0 inputs;
    failed = List.fold_left (fun a r -> a + r.Sim.virt.Sim.uncertified) 0 runs;
    problems = Sim.verdict_failures runs @ diverged;
    e2e = medians (List.map Sim.host reps) @ Sim.latency reps;
    layers;
  }

(* Like [sim], a fixed number of reps: [seconds / tcp_rep_s] of them.  Each
   stopped runtime leaves its listeners and blocked accept threads behind,
   so the live heap grows with the rep count and must not follow host speed. *)
let tcp ~size ~seed ~seconds ~spans =
  let main () =
    Tcp.rung ~spans:Spans.off ~seed ~rate:1000 ~run_s:size.tcp_rung_s ~drain_s:size.tcp_drain_s
  in
  let count = if spans.Spans.on then 1 else max 1 (int_of_float (seconds /. size.tcp_rep_s)) in
  let setups = List.init size.tcp_bare_starts (fun _ -> Tcp.bare_setup_s ()) in
  let reps = List.init count (fun _ -> main ()) in
  let first = List.hd reps in
  let layers, ladder_problems =
    if not spans.Spans.on then ([], [])
    else begin
      let rungs =
        Tcp.ladder ~spans ~seed ~rates:size.tcp_rates ~run_s:size.tcp_rung_s
          ~drain_s:size.tcp_drain_s
      in
      let idle = Tcp.idle_cpu_ms_per_s ~spans ~idle_s:size.tcp_idle_s in
      let problems =
        List.concat_map (fun r -> Tcp.problems ~must_deliver:(r.Tcp.rate <= 1000) r) rungs
      in
      (Tcp.layers ~untraced:first ~rungs ~idle, problems)
    end
  in
  {
    attempted = List.fold_left (fun a r -> a + r.Tcp.injected) 0 reps;
    failed = List.fold_left (fun a r -> a + r.Tcp.injected - Tcp.delivered r) 0 reps;
    problems = List.concat_map Tcp.problems reps @ ladder_problems;
    e2e =
      ("setup_s", Stats.median (setups @ List.map (fun r -> r.Tcp.setup_s) reps))
      :: medians (List.map Tcp.e2e reps);
    layers;
  }

let check ~size ~seed ~seconds ~spans =
  let all_models = Sut.models ~seed:(Int64.of_int seed) ~deep_depth:size.deep_depth in
  let models =
    match size.check_models with
    | None -> all_models
    | Some names -> List.filter (fun m -> List.mem m.Sut.m_name names) all_models
  in
  (* The first rep's heap is enough: every rep explores the same states. *)
  let first, first_s = timed (fun () -> Check.rep ~spans:Spans.off ~sample_live:true models) in
  let rest =
    if spans.Spans.on then []
    else
      more_reps ~seconds ~first_s (fun () -> Check.rep ~spans:Spans.off ~sample_live:false models)
  in
  let virt = Check.virt first in
  let repeat =
    if List.for_all (fun r -> Check.virt r = virt) rest then []
    else [ "a later rep explored a different state space" ]
  in
  let layers, diverged =
    if not spans.Spans.on then ([], [])
    else begin
      let traced = Check.rep ~spans ~sample_live:false models in
      let deep = List.find (fun m -> m.Sut.m_name = "sc_b2") models in
      let walk, _ =
        Spans.timed spans ~cat:"check" ~name:"violation_walk" (fun () ->
            Sut.violation_walk deep ~clock:Spans.now)
      in
      ( Check.layers ~all_models ~untraced:first ~traced ~walk,
        if Check.virt traced = virt then []
        else [ "the traced run explored a different state space" ] )
    end
  in
  let reps = first :: rest in
  let wrong = List.concat_map Check.problems reps in
  {
    attempted = List.length models * List.length reps;
    failed = List.length wrong;
    problems = wrong @ repeat @ diverged;
    e2e = medians (List.map Check.e2e reps) @ Check.latencies reps;
    layers;
  }

let workloads = [ "steady"; "failover"; "tcp"; "check" ]

let run_workload ~size ~name ~seed ~seconds ~spans =
  match name with
  | "steady" -> sim ~shape:size.steady ~rep_s:size.steady_rep_s ~seed ~seconds ~spans
  | "failover" -> sim ~shape:size.failover ~rep_s:size.failover_rep_s ~seed ~seconds ~spans
  | "tcp" -> tcp ~size ~seed ~seconds ~spans
  | "check" -> check ~size ~seed ~seconds ~spans
  | other ->
    failwith (Printf.sprintf "unknown workload %S (%s)" other (String.concat ", " workloads))

(* The metrics a run reports: every end-to-end metric untraced, every
   per-layer metric traced.  A layer the workload bypasses reads 0. *)
let reported ~trace o =
  if trace then
    List.map
      (fun (k, u) -> (k, u, Option.value (List.assoc_opt k o.layers) ~default:0.0))
      layer_metrics
  else
    List.map
      (fun (k, u) ->
        match List.assoc_opt k (("peak_live_mb", Spans.peak_live_mb ()) :: o.e2e) with
        | Some v -> (k, u, v)
        | None -> failwith ("workload did not measure " ^ k))
      e2e_metrics

let result_line o metrics =
  let module Json = Sut.Json in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (o.problems = []));
         ("attempted", Json.num_of_int o.attempted);
         ("failed", Json.num_of_int o.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (k, u, v) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                metrics) );
       ])

let workload_main ~name ~seed ~seconds ~trace ~trace_dir =
  let spans = Spans.create ~on:trace in
  let o = run_workload ~size:full ~name ~seed ~seconds ~spans in
  let metrics = reported ~trace o in
  if trace then begin
    let path = Filename.concat trace_dir (Printf.sprintf "trace-%s-seed%d.json" name seed) in
    Spans.write spans path;
    Printf.printf "trace: %s\n" path
  end;
  Printf.printf "workload %s, seed %d: %d attempted, %d failed\n" name seed o.attempted o.failed;
  List.iter (fun (k, u, v) -> Printf.printf "  %-32s %14.6g %s\n" k v u) metrics;
  List.iter (fun p -> Printf.printf "FAIL %s\n" p) o.problems;
  print_endline (result_line o metrics);
  if o.problems <> [] then exit 1

(* Every workload at a tiny size, traced (which runs the untraced path as
   well): its correctness checks must hold, it must measure every
   end-to-end metric, every per-layer name it reports must be one
   BENCHMARK.json lists, and the names and units there must be the ones
   this program reports. *)
let smoke_main ~spec_path ~trace_dir =
  let spec = Compare.load_spec spec_path in
  let sorted l = List.sort compare l in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let same what declared ours =
    if sorted declared <> sorted ours then fail "%s differ from BENCHMARK.json" what
  in
  same "end-to-end metrics"
    (List.map (fun m -> (m.Compare.name, m.Compare.unit_)) spec.Compare.end_to_end)
    e2e_metrics;
  same "per-layer metrics" spec.Compare.per_layer layer_metrics;
  same "workloads"
    (List.map (fun w -> (w, "")) spec.Compare.workloads)
    (List.map (fun w -> (w, "")) workloads);
  List.iter
    (fun name ->
      let spans = Spans.create ~on:true in
      let o, s = timed (fun () -> run_workload ~size:smoke ~name ~seed:1 ~seconds:0.0 ~spans) in
      Spans.write spans (Filename.concat trace_dir ("trace-" ^ name ^ ".json"));
      Printf.printf "smoke %-8s %5.2f s, %d attempted, %d failed\n%!" name s o.attempted o.failed;
      List.iter (fun p -> fail "%s: %s" name p) o.problems;
      List.iter
        (fun (k, _) ->
          if k <> "peak_live_mb" && not (List.mem_assoc k o.e2e) then
            fail "%s: %s not measured" name k)
        e2e_metrics;
      List.iter
        (fun (k, _) ->
          if not (List.mem_assoc k layer_metrics) then
            fail "%s: unlisted per-layer metric %s" name k)
        o.layers;
      List.iter
        (fun (k, v) -> if not (Float.is_finite v) then fail "%s: %s is not a number" name k)
        (o.e2e @ o.layers))
    workloads;
  List.iter (fun p -> Printf.printf "FAIL %s\n" p) (List.rev !problems);
  if !problems <> [] then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let trace_dir = ref (Filename.concat "bench" (Filename.concat "perf" "out")) in
  let spec = ref "BENCHMARK.json" and smoke = ref false in
  let record = ref "" and runs = ref 5 in
  let old_doc = ref "" and new_doc = ref "" in
  let args =
    [
      ("--workload", Arg.Set_string workload, "NAME  steady | failover | tcp | check");
      ("--seed", Arg.Set_int seed, "N  seed of the generated inputs (default 1)");
      ("--seconds", Arg.Set_int seconds, "S  how long a run measures (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  1 reports the per-layer metrics and writes a trace");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR  where traces go (default bench/perf/out)");
      ("--smoke", Arg.Set smoke, " run every workload at a tiny size and check the metric names");
      ("--spec", Arg.Set_string spec, "PATH  BENCHMARK.json (default: in the current directory)");
      ( "--record",
        Arg.Set_string record,
        "OUT  record --runs runs of every workload at --seed into OUT" );
      ("--runs", Arg.Set_int runs, "N  runs per workload for --record (default 5)");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string old_doc; Arg.Set_string new_doc ],
        "OLD NEW  compare two recorded documents against the bounds" );
    ]
  in
  let usage = "perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !smoke then smoke_main ~spec_path:!spec ~trace_dir:!trace_dir
  else if !old_doc <> "" then
    exit (Compare.compare ~spec:(Compare.load_spec !spec) ~old_path:!old_doc ~new_path:!new_doc)
  else if !record <> "" then
    Compare.record ~spec:(Compare.load_spec !spec) ~out:!record ~runs:!runs ~seed:!seed
  else if List.mem !workload workloads && (!trace = 0 || !trace = 1) then
    workload_main ~name:!workload ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
      ~trace_dir:!trace_dir
  else begin
    Arg.usage args usage;
    exit 2
  end
