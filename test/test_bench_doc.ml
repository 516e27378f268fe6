(* Golden-file test for the BENCH_*.json document.

   A tiny fixed-seed bench run is serialised, parsed back through the JSON
   reader, and checked two ways: the key-path skeleton must match
   bench_schema.golden byte for byte (any schema change is a deliberate,
   reviewed edit of that file plus a schema_version bump), and the decisive
   values — schema version, figure series, phase breakdowns, verdicts —
   must be reachable at their documented paths.

   The same run carries the acceptance assertion for the phase pipeline:
   the breakdown must mechanically confirm the paper's critical-path claim
   (SC two wide phases to BFT's three, SC's smaller n-to-n share, fewer
   verifies per batch at f=2). *)

module H = Sof_harness
module Json = Sof_util.Json
module Simtime = Sof_sim.Simtime

let tiny_doc =
  (* One small fail-free sweep, shared by every test below. *)
  lazy
    (let scheme = Sof_crypto.Scheme.mock in
     let seed = 7L in
     let fig4_5 =
       H.Experiments.fig4_5 ~f:2 ~intervals_ms:[ 100 ] ~rate:150.0 ~seed ~scheme ()
     in
     let breakdowns =
       H.Experiments.phase_breakdowns ~f:2 ~interval_ms:100 ~rate:150.0 ~seed
         ~duration:(Simtime.sec 5) ~scheme ()
       @ H.Experiments.mac_phase_breakdowns ~f:2 ~interval_ms:100 ~rate:150.0
           ~seed ~duration:(Simtime.sec 5) ~scheme ()
     in
     let message_counts = H.Experiments.message_counts ~f:1 () in
     (* Seed 1 is the vetted restart campaign: every protocol's restarted
        process recovers, so mean_recovery_ms is a number in the skeleton. *)
     let recovery = H.Experiments.recovery_costs ~f:2 ~seed:1L () in
     let storage = H.Experiments.durable_recovery_costs ~f:2 ~seed:1L () in
     (* Small modulus: the section's shape is under test here, not the
        Montgomery-vs-Knuth outcome (test_bignum pins correctness and the
        full-size bench pins the speed verdict). *)
     let modexp = H.Experiments.modexp_micro ~bits:[ 512 ] ~iters:1 () in
     (* One static point plus the adaptive row: enough to give the
        "timing" section and its verdicts their shape (the full sweep and
        the static/adaptive acceptance assertions live in test_gray). *)
     let timing = H.Experiments.timeout_sensitivity ~multipliers:[ 1.0 ] () in
     let dumb_process = H.Experiments.dumb_process_ablation () in
     let pair_link = H.Experiments.pair_link_ablation () in
     let doc =
       H.Bench_doc.make ~seed ~fast:true ~fig4_5 ~message_counts ~recovery
         ~storage ~modexp ~timing ~dumb_process ~pair_link ~breakdowns ()
     in
     (doc, breakdowns))

(* The key-path skeleton: every leaf's path and type, arrays collapsed to
   their first element.  Field order is the (fixed) order Bench_doc emits. *)
let rec schema_lines prefix j =
  match j with
  | Json.Obj fields ->
    List.concat_map (fun (k, v) -> schema_lines (prefix ^ "." ^ k) v) fields
  | Json.List [] -> [ prefix ^ "[]: empty" ]
  | Json.List (first :: _) -> schema_lines (prefix ^ "[]") first
  | Json.Null -> [ prefix ^ ": null" ]
  | Json.Bool _ -> [ prefix ^ ": bool" ]
  | Json.Num _ -> [ prefix ^ ": num" ]
  | Json.Str _ -> [ prefix ^ ": str" ]

let read_lines path =
  (* `dune runtest` runs us next to the golden file; a direct
     `dune exec test/test_main.exe` runs from the project root. *)
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_schema_matches_golden () =
  let doc, _ = Lazy.force tiny_doc in
  let actual = schema_lines "$" doc in
  let golden = read_lines "bench_schema.golden" in
  (* On mismatch, leave the actual skeleton where a human can diff it. *)
  if actual <> golden then begin
    let oc = open_out "/tmp/bench_schema.actual" in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc
  end;
  Alcotest.(check (list string))
    "schema skeleton (diff /tmp/bench_schema.actual against test/bench_schema.golden)"
    golden actual

let test_roundtrip_and_key_paths () =
  let doc, _ = Lazy.force tiny_doc in
  let parsed = Json.of_string (Json.to_string doc) in
  Alcotest.(check bool) "writer/reader roundtrip" true (parsed = doc);
  Alcotest.(check (option int))
    "schema_version" (Some H.Bench_doc.schema_version)
    (Option.bind (Json.path [ "schema_version" ] parsed) Json.to_int);
  Alcotest.(check (option string))
    "generator" (Some "sof-bench")
    (Option.bind (Json.path [ "generator" ] parsed) Json.to_str);
  let series =
    match Option.bind (Json.path [ "figures"; "fig4_5" ] parsed) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "figures.fig4_5 missing"
  in
  let protocols =
    List.filter_map (fun s -> Option.bind (Json.member "protocol" s) Json.to_str) series
  in
  Alcotest.(check (list string)) "figure protocols" [ "CT"; "SC"; "BFT" ] protocols;
  List.iter
    (fun s ->
      match Option.bind (Json.member "points" s) Json.to_list with
      | Some (p :: _) ->
        Alcotest.(check bool) "point has latency field" true
          (Json.member "latency_ms" p <> None);
        Alcotest.(check bool) "point has throughput" true
          (Option.bind (Json.member "throughput_rps" p) Json.to_float <> None)
      | _ -> Alcotest.fail "empty points")
    series;
  let verdicts =
    match Option.bind (Json.path [ "verdicts" ] parsed) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "verdicts missing"
  in
  Alcotest.(check bool) "verdicts present" true (List.length verdicts > 0);
  List.iter
    (fun v ->
      Alcotest.(check bool) "verdict has name and pass" true
        (Option.bind (Json.member "name" v) Json.to_str <> None
        && Option.bind (Json.member "pass" v) Json.to_bool <> None))
    verdicts

(* The acceptance check: read the claim back out of the parsed document, so
   the JSON path is exercised end to end. *)
let test_critical_path_claim () =
  let doc, breakdowns = Lazy.force tiny_doc in
  let parsed = Json.of_string (Json.to_string doc) in
  let breakdown_of proto =
    let all =
      match Option.bind (Json.path [ "phases" ] parsed) Json.to_list with
      | Some l -> l
      | None -> Alcotest.fail "phases missing"
    in
    match
      List.find_opt
        (fun bd ->
          Option.bind (Json.member "protocol" bd) Json.to_str = Some proto)
        all
    with
    | Some bd -> bd
    | None -> Alcotest.fail (proto ^ " breakdown missing")
  in
  let num bd key =
    match Option.bind (Json.member key bd) Json.to_float with
    | Some v -> v
    | None -> Alcotest.fail (key ^ " missing")
  in
  let sc = breakdown_of "SC" and bft = breakdown_of "BFT" in
  Alcotest.(check (float 0.0)) "SC has two wide phases" 2.0 (num sc "wide_phases");
  Alcotest.(check (float 0.0)) "BFT has three wide phases" 3.0 (num bft "wide_phases");
  Alcotest.(check bool) "SC n-to-n share < BFT" true
    (num sc "n_to_n_share" < num bft "n_to_n_share");
  Alcotest.(check bool) "SC verifies/batch < BFT at f=2" true
    (num sc "verifies_per_batch" < num bft "verifies_per_batch");
  (* And the verdicts the document publishes agree. *)
  List.iter
    (fun (name, pass) ->
      Alcotest.(check bool) (Printf.sprintf "verdict %S" name) true pass)
    (H.Bench_doc.phase_verdicts breakdowns)

(* The authenticator-vector acceptance: re-running SC with [--auth mac] must
   collapse the quorum phases onto MAC vectors, leaving only the accountable
   residue (order signature + endorsement, checked by up to n-1 receivers)
   on the asymmetric path.  All on the simulated clock, so deterministic. *)
let test_mac_claim () =
  let _, breakdowns = Lazy.force tiny_doc in
  let verdicts = H.Bench_doc.mac_verdicts breakdowns in
  Alcotest.(check bool) "mac verdicts present" true (List.length verdicts > 0);
  List.iter
    (fun (name, pass) ->
      Alcotest.(check bool) (Printf.sprintf "verdict %S" name) true pass)
    verdicts;
  let mac_sc =
    match H.Bench_doc.find_breakdown breakdowns ~protocol:"SC" ~auth:"mac" with
    | Some bd -> bd
    | None -> Alcotest.fail "mac-mode SC breakdown missing"
  in
  Alcotest.(check string) "find_breakdown respects auth" "mac"
    mac_sc.H.Metrics.bd_auth;
  Alcotest.(check bool) "mac-mode SC still orders batches" true
    (mac_sc.H.Metrics.bd_batches > 0)

let suite =
  [
    ( "bench_doc",
      [
        Alcotest.test_case "schema matches golden" `Slow test_schema_matches_golden;
        Alcotest.test_case "roundtrip and key paths" `Slow test_roundtrip_and_key_paths;
        Alcotest.test_case "critical-path claim (SC vs BFT)" `Slow
          test_critical_path_claim;
        Alcotest.test_case "mac authenticator-vector claim" `Slow test_mac_claim;
      ] );
  ]
