(* Command-line front-end: run single scenarios or regenerate any of the
   paper's figures.  `sof --help` lists the commands. *)

module Simtime = Sof_sim.Simtime
module Scheme = Sof_crypto.Scheme
module H = Sof_harness

open Cmdliner

(* ------------------------------------------------------- shared args *)

(* Counts, rates and durations must be positive: zero or less is a usage
   error (exit 124) reported before anything runs, not an exception from
   deep inside a run. *)
let checked conv ok ~failure =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%s is %s" s failure))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive conv zero = checked conv (fun v -> compare v zero > 0) ~failure:"not positive"
let positive_int = positive Arg.int 0

(* Offsets from time zero may be zero but not negative. *)
let non_negative_int = checked Arg.int (fun v -> v >= 0) ~failure:"negative"

let scheme_arg =
  let parse s =
    match Scheme.of_name s with
    | scheme -> Ok scheme
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  let print fmt s = Scheme.pp fmt s in
  Arg.conv (parse, print)

let scheme =
  Arg.(
    value
    & opt scheme_arg Scheme.md5_rsa1024
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:(Printf.sprintf "Crypto scheme: %s." (String.concat ", " Scheme.names)))

let auth =
  Arg.(
    value
    & opt
        (enum [ ("sign", Sof_crypto.Keyring.Sign); ("mac", Sof_crypto.Keyring.Mac) ])
        Sof_crypto.Keyring.Sign
    & info [ "auth" ] ~docv:"AUTH"
        ~doc:
          "Wire authentication: $(b,sign) (default) signs every message with \
           the scheme; $(b,mac) sends PBFT-style MAC authenticator vectors \
           for the quorum phases while orders, fail-signals and checkpoints \
           keep transferable scheme signatures.")

let f_param =
  Arg.(value & opt positive_int 2 & info [ "f"; "faults" ] ~docv:"F" ~doc:"Fault tolerance parameter.")

let seed =
  Arg.(value & opt int64 7L & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

(* --------------------------------------------------------------- run *)

let protocol_arg =
  let all =
    List.map (fun k -> (Sof_protocol.Replica.name k, k)) Sof_protocol.Replica.kinds
  in
  Arg.(
    value
    & opt (enum all) H.Cluster.Sc_protocol
    & info [ "protocol" ] ~docv:"PROTOCOL" ~doc:"One of sc, scr, bft, ct.")

let run_cmd =
  let run protocol f scheme auth interval_ms rate duration_s seed =
    let cluster =
      H.Cluster.build
        (H.Experiments.failfree_spec ~auth ~kind:protocol ~f ~scheme
           ~interval:(Simtime.ms interval_ms) ~seed ())
    in
    let duration = Simtime.sec duration_s in
    H.Workload.install cluster (H.Workload.make ~rate_per_sec:rate ()) ~duration;
    H.Cluster.run cluster ~until:(Simtime.add duration (Simtime.sec 1));
    let warmup = Simtime.sec (min 2 (duration_s / 3)) in
    let window = Simtime.diff duration warmup in
    let p = H.Metrics.analyze cluster ~warmup ~window in
    Format.printf "%a@." H.Metrics.pp_point p
  in
  let interval =
    Arg.(value & opt positive_int 100 & info [ "interval" ] ~docv:"MS" ~doc:"Batching interval (ms).")
  in
  let rate =
    Arg.(
      value
      & opt (positive Arg.float 0.0) 400.0
      & info [ "rate" ] ~docv:"RPS" ~doc:"Client request rate.")
  in
  let duration =
    Arg.(value & opt positive_int 10 & info [ "duration" ] ~docv:"S" ~doc:"Run length (seconds).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one fail-free scenario and print its metrics.")
    Term.(
      const run $ protocol_arg $ f_param $ scheme $ auth $ interval $ rate
      $ duration $ seed)

(* --------------------------------------------------------------- fig *)

(* Figures 4 and 5 are two views of the same sweep, so each names the run
   and the tables printed from it; [all] prints both tables of one run. *)
let sweeps =
  [ ('a', Scheme.md5_rsa1024); ('b', Scheme.md5_rsa1536); ('c', Scheme.sha1_dsa1024) ]

let sweep_tables x =
  [ (Printf.sprintf "fig4%c" x, `Latency); (Printf.sprintf "fig5%c" x, `Throughput) ]

let f3 = `Sweep (Some 3, Scheme.md5_rsa1024, [ ("f3", `Latency); ("f3", `Throughput) ])

let sub_figures =
  List.concat_map
    (fun (x, scheme) ->
      List.map (fun t -> (fst t, `Sweep (None, scheme, [ t ]))) (sweep_tables x))
    sweeps
  @ [ ("fig6", `Fig6); ("f3", f3); ("thresholds", `Thresholds); ("msgs", `Msgs) ]

let all_figures =
  List.map (fun (x, scheme) -> `Sweep (None, scheme, sweep_tables x)) sweeps
  @ [ `Fig6; f3; `Thresholds; `Msgs ]

let run_figure ~f ?seed ~phases ?targets = function
  | `Sweep (f_override, scheme, tables) ->
    let f = Option.value f_override ~default:f in
    let series = H.Experiments.fig4_5 ~f ?seed ~scheme () in
    List.iter
      (fun (name, which) ->
        let title what =
          Printf.sprintf "%s: %s vs batching interval, f=%d, %s" name what f
            scheme.Scheme.name
        in
        match which with
        | `Latency -> H.Report.print_fig4 ~title:(title "order latency (ms)") series
        | `Throughput -> H.Report.print_fig5 ~title:(title "throughput (req/s)") series)
      tables;
    H.Report.print_shape_checks series;
    if phases then
      H.Report.print_phase_breakdowns
        (H.Experiments.phase_breakdowns ~f ?seed ~scheme ())
  | `Fig6 ->
    List.iter
      (fun scheme ->
        H.Report.print_fig6
          ~title:(Printf.sprintf "fig6: fail-over latency, f=%d, %s" f scheme.Scheme.name)
          (H.Experiments.fig6 ~f ?targets ?seed ~scheme ()))
      Scheme.paper_schemes
  | `Thresholds ->
    let threshold scheme kind = H.Experiments.saturation_threshold ~f ?seed ~scheme kind in
    H.Report.print_thresholds
      (List.map
         (fun scheme ->
           ( scheme.Scheme.name,
             threshold scheme H.Cluster.Sc_protocol,
             threshold scheme H.Cluster.Bft_protocol ))
         Scheme.paper_schemes)
  | `Msgs -> H.Report.print_message_counts (H.Experiments.message_counts ~f ?seed ())

let fig_cmd =
  let fig name f seed phases targets =
    let targets = match targets with [] -> None | ts -> Some ts in
    let run = run_figure ~f ?seed ~phases ?targets in
    if targets <> None && name <> "fig6" then
      `Error (false, "--target applies to fig6 only")
    else
      match (name, List.assoc_opt name sub_figures) with
      | "all", _ ->
        List.iter run all_figures;
        `Ok ()
      | _, Some figure ->
        run figure;
        `Ok ()
      | _, None ->
        `Error
          ( false,
            "unknown figure; use fig4a..fig4c, fig5a..fig5c, fig6, f3, \
             thresholds, msgs or all" )
  in
  let fig_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE" ~doc:"Figure id.")
  in
  let seed =
    Arg.(
      value
      & opt (some int64) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Simulation seed for every run of the figure (default: each \
             experiment's own, 11 for fig6, 3 for msgs and 7 for the rest).")
  in
  let phases =
    Arg.(
      value & flag
      & info [ "phases" ]
          ~doc:
            "Also print the per-protocol phase breakdown (span widths, \
             messages per batch, wide/n-to-n classification, crypto ops) \
             next to the figure.")
  in
  let targets =
    Arg.(
      value & opt_all int []
      & info [ "target" ] ~docv:"N"
          ~doc:
            "fig6 only: uncommitted batches at fault time, one point each \
             (repeatable; default 15, 30, 45, 60 and 75).")
  in
  Cmd.v
    (Cmd.info "fig"
       ~doc:
         "Regenerate a figure of the paper (fig4a..c, fig5a..c, fig6, f3, \
          thresholds, msgs, all).  Schemes swept: md5-rsa1024, md5-rsa1536, \
          sha1-dsa1024 (mac-vector, mock and null are available to $(b,sof run)).")
    Term.(ret (const fig $ fig_name $ f_param $ seed $ phases $ targets))

(* --------------------------------------------------------------- bench *)

let bench_cmd =
  let bench f seed fast auth json_path =
    let scheme = Scheme.md5_rsa1024 in
    let intervals_ms =
      if fast then [ 40; 100; 300; 500 ] else H.Experiments.default_intervals_ms
    in
    let rate = if fast then 200.0 else 400.0 in
    let fig4_5 = H.Experiments.fig4_5 ~auth ~f ~intervals_ms ~rate ~seed ~scheme () in
    let duration = Simtime.sec (if fast then 5 else 10) in
    (* Signed and MAC-mode breakdowns of the same configuration: the MAC
       verdicts compare the two, so both always run regardless of the
       sweep's $(b,--auth). *)
    let breakdowns =
      H.Experiments.phase_breakdowns ~f ~seed ~scheme ~duration ()
      @ H.Experiments.mac_phase_breakdowns ~f ~seed ~scheme ~duration ()
    in
    let message_counts = H.Experiments.message_counts ~f () in
    let fig6 = if fast then None else Some (H.Experiments.fig6 ~f ~seed ~scheme ()) in
    (* The recovery section measures a vetted seeded campaign, not the
       bench seed: its point is the cost of a recovery that happens. *)
    let recovery = H.Experiments.recovery_costs ~f () in
    let storage = H.Experiments.durable_recovery_costs ~f () in
    let modexp = H.Experiments.modexp_micro () in
    (* The timeout-sensitivity sweep runs its own pinned gray campaign
       (seed 1), not the bench seed: the point is the static-vs-adaptive
       asymmetry on a vetted straggler schedule. *)
    let timing =
      let multipliers =
        if fast then [ 1.0 ] else [ 0.25; 0.5; 1.0; 2.0; 4.0 ]
      in
      H.Experiments.timeout_sensitivity ~multipliers ()
    in
    (* The ablations, like the recovery section, run their own vetted
       configurations rather than the bench seed. *)
    let dumb_process = H.Experiments.dumb_process_ablation () in
    let pair_link = H.Experiments.pair_link_ablation () in
    let doc =
      H.Bench_doc.make ~seed ~fast ~fig4_5 ?fig6 ~message_counts ~recovery
        ~storage ~modexp ~timing ~dumb_process ~pair_link ~breakdowns ()
    in
    H.Report.print_fig4
      ~title:(Printf.sprintf "bench: order latency (ms), f=%d, %s" f scheme.Scheme.name)
      fig4_5;
    H.Report.print_fig5
      ~title:(Printf.sprintf "bench: throughput (req/s), f=%d, %s" f scheme.Scheme.name)
      fig4_5;
    H.Report.print_shape_checks fig4_5;
    H.Report.print_phase_breakdowns breakdowns;
    H.Report.print_recovery_costs recovery;
    Format.printf "storage (durable campaign, disk-fault atlas):@.";
    List.iter
      (fun (label, (rc : H.Metrics.recovery), (st : H.Metrics.storage)) ->
        Format.printf
          "  %-4s %d local replays (%d clean), %d transfers; %d appends, %d \
           syncs, %d checkpoint writes; atlas: %d lost, %d misdirected, %d \
           torn, %d corrupt reads@."
          label rc.H.Metrics.rc_local_replays rc.H.Metrics.rc_local_recoveries
          rc.H.Metrics.rc_transfers_installed st.H.Metrics.st_appends
          st.H.Metrics.st_syncs st.H.Metrics.st_checkpoint_writes
          st.H.Metrics.st_lost_writes st.H.Metrics.st_misdirected
          st.H.Metrics.st_torn st.H.Metrics.st_corrupt_reads)
      storage;
    Format.printf "modexp micro-bench (host wall clock):@.";
    List.iter
      (fun (p : H.Experiments.modexp_point) ->
        Format.printf "  %4d bits: montgomery %.2fms, knuth %.2fms@."
          p.H.Experiments.mx_bits p.H.Experiments.mx_montgomery_ms
          p.H.Experiments.mx_knuth_ms)
      modexp;
    Format.printf
      "timeout sensitivity (SC gray campaign, premature signals vs estimate):@.";
    List.iter
      (fun (p : H.Experiments.timeout_point) ->
        Format.printf
          "  %-12s %6.0fms estimate: %d fail-signals, %d installs, min \
           deliveries %d%s@."
          p.H.Experiments.ts_label p.H.Experiments.ts_estimate_ms
          p.H.Experiments.ts_fail_signals p.H.Experiments.ts_installs
          p.H.Experiments.ts_min_deliveries
          (if p.H.Experiments.ts_degradation_live then ""
           else " (delivery stalled)"))
      timing;
    H.Report.print_dumb_ablation dumb_process;
    H.Report.print_pair_link_ablation pair_link;
    List.iter
      (fun (name, pass) ->
        Format.printf "  [%s] %s@." (if pass then "PASS" else "FAIL") name)
      (H.Bench_doc.phase_verdicts breakdowns
      @ H.Bench_doc.mac_verdicts breakdowns
      @ H.Bench_doc.modexp_verdicts modexp
      @ H.Bench_doc.timing_verdicts timing
      @ H.Bench_doc.ablation_verdicts ~dumb_process ~pair_link);
    match json_path with
    | None -> `Ok ()
    | Some path ->
      let path =
        (* A directory target gets the dated canonical name. *)
        if Sys.file_exists path && Sys.is_directory path then begin
          let tm = Unix.localtime (Unix.time ()) in
          Filename.concat path
            (Printf.sprintf "BENCH_%04d-%02d-%02d.json" (tm.Unix.tm_year + 1900)
               (tm.Unix.tm_mon + 1) tm.Unix.tm_mday)
        end
        else path
      in
      let oc = open_out path in
      output_string oc (Sof_util.Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Format.printf "wrote %s@." path;
      `Ok ()
  in
  let fast =
    Arg.(
      value & flag
      & info [ "fast" ]
          ~doc:"Reduced sweep for CI: fewer intervals, shorter runs, no fig6.")
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write the versioned benchmark document (schema_version, every \
             figure series, phase breakdowns, verdicts) to $(docv).  When \
             $(docv) is a directory, the file is named BENCH_<date>.json.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the figure sweep plus the phase breakdown (signed and MAC \
          wire-auth modes, schemes md5-rsa1024/md5-rsa1536/sha1-dsa1024/\
          mac-vector/mock/null), the recovery, timing and modexp sections \
          and the dumb-process and pair-link ablations, and emit a \
          machine-readable benchmark document.")
    Term.(ret (const bench $ f_param $ seed $ fast $ auth $ json_path))

(* --------------------------------------------------------------- trace *)

let trace_cmd =
  let trace protocol f scheme duration_s seed corrupt_at =
    let faults =
      match corrupt_at with
      | Some o -> [ (0, Sof_protocol.Fault.Corrupt_digest_at o) ]
      | None -> []
    in
    let spec =
      {
        (H.Cluster.default_spec ~kind:protocol ~f) with
        H.Cluster.scheme;
        batching_interval = Simtime.ms 100;
        pair_delay_estimate = Simtime.ms 300;
        seed;
        faults;
      }
    in
    let cluster = H.Cluster.build spec in
    let duration = Simtime.sec duration_s in
    H.Workload.install cluster (H.Workload.make ~rate_per_sec:60.0 ()) ~duration;
    H.Cluster.run cluster ~until:(Simtime.add duration (Simtime.sec 1));
    List.iter
      (fun (at, who, event) ->
        Format.printf "%10.3fms  p%-2d %a@." (Simtime.to_ms at) who
          Sof_protocol.Context.pp_event event)
      (H.Cluster.events cluster)
  in
  let duration =
    Arg.(value & opt positive_int 2 & info [ "duration" ] ~docv:"S" ~doc:"Run length (seconds).")
  in
  let corrupt_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "corrupt-at" ] ~docv:"SEQ"
          ~doc:"Inject a value-domain fault at this sequence number.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print the full protocol event timeline of a short run.")
    Term.(const trace $ protocol_arg $ f_param $ scheme $ duration $ seed $ corrupt_at)

(* -------------------------------------------------------------- census *)

let census_cmd =
  let census protocol f scheme duration_s seed =
    let cluster =
      H.Cluster.build
        (H.Experiments.failfree_spec ~kind:protocol ~f ~scheme
           ~interval:(Simtime.ms 100) ~seed ())
    in
    let census = H.Census.attach cluster in
    let duration = Simtime.sec duration_s in
    H.Workload.install cluster (H.Workload.make ~rate_per_sec:200.0 ()) ~duration;
    H.Cluster.run cluster ~until:(Simtime.add duration (Simtime.sec 1));
    Format.printf "%a" H.Census.pp census
  in
  let duration =
    Arg.(value & opt positive_int 5 & info [ "duration" ] ~docv:"S" ~doc:"Run length (seconds).")
  in
  Cmd.v
    (Cmd.info "census" ~doc:"Per-message-type traffic census of a fail-free run.")
    Term.(const census $ protocol_arg $ f_param $ scheme $ duration $ seed)

(* --------------------------------------------------------------- chaos *)

let chaos_cmd =
  let chaos protocol f seed duration_s byz restart durable disk_faults long gray
      timing auth =
    (* Each flag selects one layer; the two rules below are about flags
       that select none, the rest are the layers' own. *)
    let layers =
      if long && gray then
        Error "--long is a fail-free endurance run; drop --gray"
      else if timing <> `Auto && not gray then
        Error
          "--timing selects the --gray estimator; classic campaigns run the \
           paper's static (Sync) estimates"
      else
        let base =
          if long then []
          else if gray then
            [
              H.Nemesis.Gray
                (match timing with
                | `Static -> Sof_protocol.Config.Static
                | `Adaptive | `Auto -> Sof_protocol.Config.Adaptive);
            ]
          else [ H.Nemesis.Lossy ]
        in
        let layers =
          base
          @ List.filter_map
              (fun (on, layer) -> if on then Some layer else None)
              H.Nemesis.
                [
                  (byz, Byzantine);
                  (restart, Restart);
                  (durable || disk_faults, Durable);
                  (disk_faults, Disk_faults);
                ]
        in
        match H.Nemesis.rejection ~auth layers with
        | Some msg -> Error msg
        | None -> Ok layers
    in
    match layers with
    | Error msg -> `Error (false, msg)
    | Ok layers ->
      let report =
        H.Nemesis.run ~auth ~layers ~kind:protocol ~f ~seed
          ~duration:(Simtime.sec duration_s) ()
      in
      Format.printf "%a" H.Nemesis.pp_report report;
      if report.H.Nemesis.passed then `Ok ()
      else begin
        (* One line with everything CI needs to reproduce and triage. *)
        let failing =
          List.filter_map
            (fun r -> if r.H.Invariants.pass then None else Some r.H.Invariants.name)
            report.H.Nemesis.invariants
        in
        `Error
          ( false,
            Printf.sprintf "chaos FAIL seed=%Ld invariant=%s" seed
              (String.concat "," failing) )
      end
  in
  let f_param =
    Arg.(value & opt positive_int 1 & info [ "f"; "faults" ] ~docv:"F" ~doc:"Fault tolerance parameter.")
  in
  let duration =
    Arg.(
      value & opt positive_int 10 & info [ "duration" ] ~docv:"S" ~doc:"Campaign length (seconds).")
  in
  let byz =
    Arg.(
      value & flag
      & info [ "byz" ]
          ~doc:
            "Trade the campaign's crash for one seeded Byzantine fault \
             (equivocation, fail-signal abuse, stale replay, wire corruption, \
             …) aimed at the initial coordinator pair.  With $(b,--durable), \
             the crash stays and the fault moves to the repair path: a \
             replica serving state transfers from a tampered log.")
  in
  let restart =
    Arg.(
      value & flag
      & info [ "restart" ]
          ~doc:
            "Bring the campaign's crash target back mid-run with empty \
             volatile state; it must rejoin through a certified state \
             transfer.  Turns on checkpointing (interval 8) and the \
             checkpoint-agreement, bounded-log and recovery-liveness \
             invariants.  With $(b,--byz) it needs $(b,--durable).")
  in
  let durable =
    Arg.(
      value & flag
      & info [ "durable" ]
          ~doc:
            "Build the cluster over simulated disks: every commit is logged \
             and synced before the reply, checkpoints are persisted, and \
             restarts recover from the local write-ahead log first.  With \
             $(b,--restart), the campaign also ends in a whole-cluster \
             blackout and mass restart.  Adds the durability invariant (and \
             repair correctness after restarts).")
  in
  let disk_faults =
    Arg.(
      value & flag
      & info [ "disk-faults" ]
          ~doc:
            "Implies $(b,--durable) and arms the storage-fault atlas on \
             replicas 1..f: torn writes at crash, stably corrupt sectors, \
             lost and misdirected writes.")
  in
  let long =
    Arg.(
      value & flag
      & info [ "long" ]
          ~doc:
            "Fail-free endurance run instead of a fault campaign: sustained \
             load over many checkpoint intervals, asserting that the \
             retained order log stays bounded by truncation while the total \
             order grows.")
  in
  let gray =
    Arg.(
      value & flag
      & info [ "gray" ]
          ~doc:
            "Gray-failure campaign instead of a fault campaign: no process is \
             faulty, but one replica straggles through a seeded jitter ramp \
             while asymmetric slow links, degrading links and load surges \
             compound it.  Judges degradation liveness (slow never becomes \
             stopped) and — under adaptive timing — that no premature \
             fail-signal, view change or coordinator rotation occurs.  With \
             $(b,--durable), the cluster also runs over slow-sector disks \
             (correct data, stalling reads).")
  in
  let timing =
    Arg.(
      value
      & opt (enum [ ("auto", `Auto); ("static", `Static); ("adaptive", `Adaptive) ]) `Auto
      & info [ "timing" ] ~docv:"TIMING"
          ~doc:
            "Delay-estimate mode for $(b,--gray) campaigns: $(b,adaptive) \
             (what $(b,auto) resolves to) drives every suspicion timer from \
             per-link Jacobson round-trip estimators with exponential backoff \
             and a hard cap; $(b,static) keeps the paper's fixed Sync-model \
             estimate, under which a straggler is expected to draw premature \
             fail-signals.  Classic campaigns always run static — the paper's \
             timed detection obligations assume it.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded Nemesis fault campaign (lossy links, partitions, crash, \
          surge) over the reliable channel and check protocol invariants.  The \
          same seed reproduces the same campaign."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Each flag selects one fault layer: the default lossy campaign \
              (crash + partitions + loss + surge), or $(b,--gray) in its \
              place, or neither under $(b,--long); then $(b,--byz), \
              $(b,--restart), $(b,--durable) and $(b,--disk-faults) (which \
              implies $(b,--durable)).  The layer rules: $(b,--long) takes \
              no other layer; $(b,--gray) takes only $(b,--durable) (slow \
              sectors) and $(b,--timing), and runs signed; $(b,--timing) \
              needs $(b,--gray); $(b,--byz) with $(b,--restart) needs \
              $(b,--durable), where the Byzantine fault moves to a replica \
              serving state transfers from a tampered log.  Every other \
              combination is rejected with an explanation rather than \
              silently ignored.";
         ])
    Term.(
      ret
        (const chaos $ protocol_arg $ f_param $ seed $ duration $ byz $ restart
       $ durable $ disk_faults $ long $ gray $ timing $ auth))

(* ---------------------------------------------------------------- fuzz *)

let fuzz_cmd =
  let fuzz seed count =
    let wire = H.Fuzz.run ~seed ~count in
    Format.printf "wire    %a@." H.Fuzz.pp_outcome wire;
    let storage = H.Fuzz.run_storage ~seed ~count in
    Format.printf "storage %a@." H.Fuzz.pp_outcome storage;
    if H.Fuzz.passed wire && H.Fuzz.passed storage then `Ok ()
    else
      `Error
        ( false,
          Printf.sprintf "fuzz FAIL seed=%Ld crashes=%d non-canonical=%d" seed
            (List.length wire.H.Fuzz.crashes + List.length storage.H.Fuzz.crashes)
            (List.length wire.H.Fuzz.non_canonical
            + List.length storage.H.Fuzz.non_canonical) )
  in
  let count =
    Arg.(
      value & opt int 10_000
      & info [ "count" ] ~docv:"N" ~doc:"Number of hostile buffers to decode.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Seeded decode fuzzing: feed hostile byte strings to every \
          wire-format decode entry point and to the durable-state decoders \
          (checkpoint certificates, state-transfer entries, checkpoint \
          images, write-ahead-log recovery over a scribbled disk); fail on \
          any escape other than the recoverable rejection, and on any \
          decoded value that does not re-encode to the bytes it came from.")
    Term.(ret (const fuzz $ seed $ count))

(* ---------------------------------------------------------------- lint *)

let lint_cmd =
  let module L = Sof_lint in
  let rule_list_conv =
    let parse s =
      let ids = String.split_on_char ',' s in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | id :: rest -> (
          match L.Diagnostic.rule_of_id (String.trim id) with
          | Some r -> go (r :: acc) rest
          | None -> Error (`Msg (Printf.sprintf "unknown rule id %S" id)))
      in
      go [] ids
    in
    let print fmt rs =
      Format.pp_print_string fmt
        (String.concat "," (List.map L.Diagnostic.rule_id rs))
    in
    Arg.conv (parse, print)
  in
  let lint strict only disable allow_file paths =
    let rules =
      let base = match only with [] -> L.Diagnostic.all_rules | rs -> rs in
      List.filter (fun r -> not (List.mem r disable)) base
    in
    let allow_file =
      match allow_file with
      | Some f -> if Sys.file_exists f then Some f else None
      | None -> if Sys.file_exists "lint.allow" then Some "lint.allow" else None
    in
    match
      match allow_file with
      | None -> Ok L.Allow.empty
      | Some f -> L.Allow.load f
    with
    | Error msg -> `Error (false, msg)
    | Ok allow ->
      let paths = match paths with [] -> [ "lib" ] | ps -> ps in
      let outcome = L.Engine.run ~rules ~allow ~paths in
      List.iter
        (fun d -> Format.printf "%a@." L.Diagnostic.pp d)
        outcome.L.Engine.diags;
      List.iter
        (fun e ->
          Format.printf "stale allowlist entry (matches no diagnostic): %a@."
            L.Allow.pp_entry e)
        outcome.L.Engine.stale;
      let n = List.length outcome.L.Engine.diags in
      let s = List.length outcome.L.Engine.stale in
      Format.printf "lint: %d file(s), %d diagnostic(s), %d allowlisted, %d stale@."
        outcome.L.Engine.files n outcome.L.Engine.suppressed s;
      if strict && (n > 0 || s > 0) then
        `Error
          ( false,
            Printf.sprintf "lint --strict: %d diagnostic(s), %d stale allow entr%s"
              n s
              (if s = 1 then "y" else "ies") )
      else `Ok ()
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit nonzero if any diagnostic survives the allowlist.")
  in
  let only =
    Arg.(
      value
      & opt rule_list_conv []
      & info [ "rules" ] ~docv:"IDS"
          ~doc:"Comma-separated rule ids to run (default: all of R1..R6).")
  in
  let disable =
    Arg.(
      value
      & opt rule_list_conv []
      & info [ "disable" ] ~docv:"IDS" ~doc:"Comma-separated rule ids to skip.")
  in
  let allow_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "allow" ] ~docv:"FILE"
          ~doc:"Allowlist file (default: ./lint.allow when present).")
  in
  let paths =
    Arg.(value & pos_all string [] & info [] ~docv:"PATHS" ~doc:"Files or directories to scan (default: lib).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Protocol-hygiene linter: no polymorphic comparison in core/crypto \
          (R1), no catch-all message dispatch in core (R2), no partial \
          stdlib calls in core/net (R3), no failwith/assert-false in \
          protocol code (R4), printing only through the report sink (R5), \
          an .mli for every lib module (R6), no ambient \
          randomness/wall-clock in core/net (R7), no mutable module-level \
          state in core (R8).  Deliberate exceptions live in lint.allow \
          with a reason each; entries that no longer match anything are \
          reported stale and fail --strict.")
    Term.(ret (const lint $ strict $ only $ disable $ allow_file $ paths))

(* ---------------------------------------------------------------- check *)

let check_cmd =
  let module C = Sof_check in
  let protocol_conv =
    let parse s =
      match C.Model.protocol_of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "unknown protocol %S (sc|scr|bft|ct)" s))
    in
    Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (C.Model.protocol_name p))
  in
  let check protocol f nodes batches faults equivocate spurious mutant watchdogs
      depth seed no_sleep no_ample stats replay require_exhausted =
    let protocols =
      match protocol with Some p -> [ p ] | None -> C.Model.all_protocols
    in
    let spec_for p =
      {
        (C.Model.default p) with
        C.Model.f;
        batches;
        crash_budget = faults;
        equivocate;
        spurious_fs = Option.map Sof_sim.Simtime.ms spurious;
        digest_blind = mutant;
        explore_watchdogs = watchdogs;
        seed;
      }
    in
    let validate spec =
      match C.Model.validate spec with
      | Error _ as e -> e
      | Ok () -> (
        match nodes with
        | None -> Ok ()
        | Some n ->
          let expected = Sof_protocol.Config.process_count (C.Model.config spec) in
          if n = expected then Ok ()
          else
            Error
              (Printf.sprintf "%s with f=%d has %d processes, not %d"
                 (C.Model.protocol_name spec.C.Model.protocol)
                 spec.C.Model.f expected n))
    in
    match replay with
    | Some sched_str -> (
      match protocols with
      | [ p ] -> (
        let spec = spec_for p in
        match
          match validate spec with
          | Error e -> Error e
          | Ok () -> C.Schedule.decode sched_str
        with
        | Error e -> `Error (false, e)
        | Ok sched -> (
          match C.Explore.replay spec sched with
          | Error e -> `Error (false, "replay infeasible: " ^ e)
          | Ok w ->
            Format.printf "replay %s seed=%Ld@." (C.Model.describe spec)
              spec.C.Model.seed;
            List.iteri
              (fun i line -> Format.printf "  %2d. %s@." (i + 1) line)
              (C.Explore.trace_of spec sched);
            (match C.World.violation w with
            | Some r ->
              Format.printf "VIOLATION of %s: %s@." r.H.Invariants.name
                r.H.Invariants.detail;
              `Error (false, "replay re-triggered " ^ r.H.Invariants.name)
            | None ->
              Format.printf "replay clean: no invariant violated@.";
              `Ok ())))
      | _ -> `Error (false, "--replay requires a single --protocol"))
    | None ->
      let reports =
        List.map
          (fun p ->
            let spec = spec_for p in
            match validate spec with
            | Error e -> Error e
            | Ok () ->
              Ok
                (C.Explore.run ~use_sleep:(not no_sleep)
                   ~use_ample:(not no_ample) spec ~depth))
          protocols
      in
      let bad = List.filter_map (function Error e -> Some e | Ok _ -> None) reports in
      (match bad with
      | e :: _ -> `Error (false, e)
      | [] ->
        let reports = List.filter_map Result.to_option reports in
        List.iter
          (fun r -> Format.printf "%s@." (C.Report.to_string ~stats r))
          reports;
        let violated =
          List.filter
            (fun r ->
              match r.C.Explore.outcome with
              | C.Explore.Violation _ -> true
              | _ -> false)
            reports
        in
        let capped =
          List.filter
            (fun r -> r.C.Explore.outcome = C.Explore.Depth_capped)
            reports
        in
        if violated <> [] then
          `Error
            ( false,
              Printf.sprintf "%d model(s) violated an invariant"
                (List.length violated) )
        else if require_exhausted && capped <> [] then
          `Error
            ( false,
              Printf.sprintf
                "%d model(s) hit the depth cap before exhausting (raise --depth)"
                (List.length capped) )
        else `Ok ())
  in
  let protocol =
    Arg.(
      value
      & opt (some protocol_conv) None
      & info [ "protocol"; "p" ] ~docv:"NAME"
          ~doc:"Protocol core to check: sc, scr, bft or ct (default: all four).")
  in
  (* A long name beside [-f], so [--f] is ambiguous rather than a prefix of
     [--faults], the crash budget. *)
  let f =
    Arg.(
      value & opt positive_int 1
      & info [ "f"; "fault-tolerance" ] ~docv:"F"
          ~doc:"Fault-tolerance parameter (keep at 1 for exhaustion).")
  in
  let nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "nodes" ] ~docv:"N"
          ~doc:"Expected process count; checked against the protocol's layout \
                for $(b,-f) (SC 3f+1, SCR 3f+2, BFT 3f+1, CT 2f+1).")
  in
  let batches =
    Arg.(value & opt int 1 & info [ "batches" ] ~docv:"B" ~doc:"Client requests (one per batch).")
  in
  let faults =
    Arg.(
      value & opt int 0
      & info [ "faults" ] ~docv:"N"
          ~doc:"Crash budget: schedules may crash up to N processes (N <= f).")
  in
  let equivocate =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "equivocate" ] ~docv:"SEQ"
          ~doc:"Process 0 (the initial coordinator/primary) equivocates when \
                minting this sequence number.")
  in
  let spurious =
    Arg.(
      value
      & opt (some non_negative_int) None
      & info [ "spurious" ] ~docv:"MS"
          ~doc:"Process 0 raises a baseless fail-signal at this simulated \
                millisecond (sc/scr only).")
  in
  let mutant =
    Arg.(
      value & flag
      & info [ "mutant" ]
          ~doc:"Enable the bft digest-blind vote-pooling mutant (the \
                historically observed safety bug) — expect a counterexample.")
  in
  let watchdogs =
    Arg.(
      value & flag
      & info [ "watchdogs" ]
          ~doc:"Also schedule watchdog timers (timing-failure simulation; \
                outside the paper's synchrony assumptions for sc/scr and \
                unbounded for bft/ct, so expect depth-capping).")
  in
  let depth =
    Arg.(value & opt positive_int 40 & info [ "depth" ] ~docv:"D" ~doc:"Maximum schedule length to explore.")
  in
  let seed =
    Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"Key-derivation seed (replays must match).")
  in
  let no_sleep =
    Arg.(
      value & flag
      & info [ "no-sleep" ]
          ~doc:"Disable sleep-set pruning (slower, assumption-free search).")
  in
  let no_ample =
    Arg.(
      value & flag
      & info [ "no-ample" ]
          ~doc:"Disable the single-successor (ample) reduction over commuting \
                vote deliveries; without it the bft/sc/scr vote rounds are \
                unlikely to exhaust within any practical --depth.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print search statistics as key=value lines.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"SCHEDULE"
          ~doc:"Replay a schedule (e.g. 'd0 d2 f1') against the model instead \
                of searching; requires a single --protocol.")
  in
  let require_exhausted =
    Arg.(
      value & flag
      & info [ "require-exhausted" ]
          ~doc:"Exit nonzero unless every model was fully exhausted within \
                --depth (what CI's check-smoke gate asks for).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustive-schedule model checker: drive the deterministic protocol \
          cores through every interleaving of message delivery, timer firing \
          and a bounded fault budget for a tiny model, checking agreement, \
          commit coherence, prefix consistency, validity, checkpoint \
          agreement and fail-signal soundness at every state.  Sleep-set \
          (DPOR) pruning and a canonical-hash visited set keep the search \
          tractable; violations are reported as minimal replayable schedules.")
    Term.(
      ret
        (const check $ protocol $ f $ nodes $ batches $ faults $ equivocate
       $ spurious $ mutant $ watchdogs $ depth $ seed $ no_sleep $ no_ample
       $ stats $ replay $ require_exhausted))

let main =
  Cmd.group
    (Cmd.info "sof" ~version:"1.0.0"
       ~doc:"Signal-on-fail Byzantine total-order protocols (DSN'06 reproduction).")
    [
      run_cmd;
      fig_cmd;
      bench_cmd;
      trace_cmd;
      census_cmd;
      chaos_cmd;
      fuzz_cmd;
      lint_cmd;
      check_cmd;
    ]

(* A configuration the protocols reject is a usage error, like a bad flag;
   anything else escaping a command is an internal error. *)
let () =
  exit
    (match Cmd.eval ~catch:false main with
    | code -> code
    | exception Sof_protocol.Config.Invalid_config msg ->
      Format.eprintf "sof: %s@." msg;
      Cmd.Exit.cli_error
    | exception e ->
      Format.eprintf "sof: internal error, uncaught exception:@.%s@." (Printexc.to_string e);
      Cmd.Exit.internal_error)
