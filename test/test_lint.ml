(* The protocol-hygiene linter: each seeded fixture must produce exactly its
   rule at the documented line, and the real library tree must come back
   clean under the checked-in allowlist (what `sof lint --strict` enforces
   in CI). *)

module L = Sof_lint

let fixture seg file = Filename.concat (Filename.concat "lint_fixtures" seg) file

let run_one ~rule path =
  let o = L.Engine.run ~rules:[ rule ] ~allow:L.Allow.empty ~paths:[ path ] in
  o.L.Engine.diags

let check_single name ~rule ~line diags =
  match diags with
  | [ (d : L.Diagnostic.t) ] ->
    Alcotest.(check string)
      (name ^ ": rule id") (L.Diagnostic.rule_id rule)
      (L.Diagnostic.rule_id d.L.Diagnostic.rule);
    Alcotest.(check int) (name ^ ": line") line d.L.Diagnostic.line
  | l -> Alcotest.failf "%s: expected exactly one diagnostic, got %d" name (List.length l)

let seeded name ~rule ~seg ~file ~line () =
  check_single name ~rule ~line (run_one ~rule (fixture seg file))

let test_r1 = seeded "r1" ~rule:L.Diagnostic.R1 ~seg:"core" ~file:"r1_poly_eq.ml" ~line:4
let test_r1_sim =
  seeded "r1 sim" ~rule:L.Diagnostic.R1 ~seg:"sim" ~file:"r1_poly_compare.ml" ~line:5
let test_r1_storage =
  seeded "r1 storage" ~rule:L.Diagnostic.R1 ~seg:"storage" ~file:"r1_poly_sector.ml" ~line:5
let test_r2 = seeded "r2" ~rule:L.Diagnostic.R2 ~seg:"core" ~file:"r2_catch_all.ml" ~line:7
let test_r3 = seeded "r3" ~rule:L.Diagnostic.R3 ~seg:"net" ~file:"r3_partial.ml" ~line:3
let test_r4 = seeded "r4" ~rule:L.Diagnostic.R4 ~seg:"core" ~file:"r4_failwith.ml" ~line:4
let test_r5 = seeded "r5" ~rule:L.Diagnostic.R5 ~seg:"harness" ~file:"r5_print.ml" ~line:3
let test_r6 = seeded "r6" ~rule:L.Diagnostic.R6 ~seg:"core" ~file:"r6_no_mli.ml" ~line:1
let test_r7 = seeded "r7" ~rule:L.Diagnostic.R7 ~seg:"core" ~file:"r7_ambient.ml" ~line:4
let test_r8 = seeded "r8" ~rule:L.Diagnostic.R8 ~seg:"core" ~file:"r8_module_state.ml" ~line:3

(* Rules are directory-scoped: the same polymorphic [=] that fires in a core
   fixture is silent outside the linted subtrees. *)
let test_scope () =
  let scope = L.Rules.scope_of_path "lib/core/sc.ml" in
  Alcotest.(check bool) "core file is core-scoped" true scope.L.Rules.core;
  Alcotest.(check bool) "engine is sim-scoped" true
    (L.Rules.scope_of_path "lib/sim/engine.ml").L.Rules.sim;
  Alcotest.(check bool) "wal is storage-scoped" true
    (L.Rules.scope_of_path "lib/storage/wal.ml").L.Rules.storage;
  let outside = L.Rules.scope_of_path "bin/sof.ml" in
  Alcotest.(check bool) "bin is not lib" false outside.L.Rules.in_lib

let test_allow_suppresses () =
  let d =
    {
      L.Diagnostic.rule = L.Diagnostic.R5;
      file = "lib/runtime/tcp_runtime.ml";
      line = 3;
      col = 0;
      message = "printf";
      context = "Printf.eprintf \"boom\"";
    }
  in
  let e = { L.Allow.rule = "R5"; path = "runtime/tcp_runtime.ml"; context = None; reason = "r" } in
  Alcotest.(check bool) "suffix path + rule match" true (L.Allow.suppresses [ e ] d);
  Alcotest.(check bool) "rule mismatch" false
    (L.Allow.suppresses [ { e with L.Allow.rule = "R1" } ] d);
  Alcotest.(check bool) "path mismatch" false
    (L.Allow.suppresses [ { e with L.Allow.path = "lib/core/sc.ml" } ] d);
  Alcotest.(check bool) "context must appear on the line" false
    (L.Allow.suppresses [ { e with L.Allow.context = Some "no such text" } ] d);
  Alcotest.(check bool) "matching context" true
    (L.Allow.suppresses [ { e with L.Allow.context = Some "eprintf" } ] d);
  Alcotest.(check bool) "wildcard rule" true
    (L.Allow.suppresses [ { e with L.Allow.rule = "*" } ] d)

let test_allow_load_rejects_reasonless () =
  let f = Filename.temp_file "sof_lint_allow" ".txt" in
  let oc = open_out f in
  output_string oc "# comment\nR5 lib/foo.ml\n";
  close_out oc;
  let r = L.Allow.load f in
  Sys.remove f;
  match r with
  | Ok _ -> Alcotest.fail "an entry without ` -- reason` must be rejected"
  | Error e ->
    Alcotest.(check bool) "error names the offending line" true
      (String.length e > 0)

(* Staleness: an allow entry whose rule is enabled and whose path names a
   scanned file, yet which covers no diagnostic, is reported; entries whose
   rule or file is outside the run's scope are left alone. *)
let test_stale_allow () =
  let entry rule path = { L.Allow.rule; path; context = None; reason = "r" } in
  let live = entry "R5" "r5_print.ml" in
  let stale = entry "R1" "r5_print.ml" in
  let off_rule = entry "R2" "r5_print.ml" in
  let off_path = entry "R5" "no_such_file.ml" in
  let o =
    L.Engine.run
      ~rules:[ L.Diagnostic.R1; L.Diagnostic.R5 ]
      ~allow:[ live; stale; off_rule; off_path ]
      ~paths:[ fixture "harness" "r5_print.ml" ]
  in
  Alcotest.(check int) "live entry suppresses" 1 o.L.Engine.suppressed;
  Alcotest.(check (list string))
    "only the in-scope unmatched entry is stale"
    [ Format.asprintf "%a" L.Allow.pp_entry stale ]
    (List.map (Format.asprintf "%a" L.Allow.pp_entry) o.L.Engine.stale)

(* The tree `sof lint --strict` gates in CI: every rule over lib/, filtered
   by the checked-in allowlist, must produce zero diagnostics. *)
let test_lib_tree_is_clean () =
  let allow =
    match L.Allow.load "../lint.allow" with
    | Ok a -> a
    | Error e -> Alcotest.failf "lint.allow failed to parse: %s" e
  in
  let o = L.Engine.run ~rules:L.Diagnostic.all_rules ~allow ~paths:[ "../lib" ] in
  let render d = Format.asprintf "%a" L.Diagnostic.pp d in
  Alcotest.(check (list string))
    "lib/ is lint-clean under lint.allow" []
    (List.map render o.L.Engine.diags);
  Alcotest.(check (list string))
    "lint.allow carries no stale entries" []
    (List.map (Format.asprintf "%a" L.Allow.pp_entry) o.L.Engine.stale)

let suite =
  [
    ( "lint",
      [
        Alcotest.test_case "fixture r1: polymorphic equality" `Quick test_r1;
        Alcotest.test_case "fixture r1: polymorphic compare in lib/sim" `Quick test_r1_sim;
        Alcotest.test_case "fixture r1: polymorphic equality in lib/storage" `Quick
          test_r1_storage;
        Alcotest.test_case "fixture r2: dispatch catch-all" `Quick test_r2;
        Alcotest.test_case "fixture r3: partial stdlib" `Quick test_r3;
        Alcotest.test_case "fixture r4: failwith in protocol" `Quick test_r4;
        Alcotest.test_case "fixture r5: direct print" `Quick test_r5;
        Alcotest.test_case "fixture r6: missing mli" `Quick test_r6;
        Alcotest.test_case "fixture r7: ambient nondeterminism" `Quick test_r7;
        Alcotest.test_case "fixture r8: module-level mutable state" `Quick test_r8;
        Alcotest.test_case "stale allowlist entries are reported" `Quick
          test_stale_allow;
        Alcotest.test_case "path scoping" `Quick test_scope;
        Alcotest.test_case "allowlist suppression semantics" `Quick test_allow_suppresses;
        Alcotest.test_case "allowlist rejects entries without a reason" `Quick
          test_allow_load_rejects_reasonless;
        Alcotest.test_case "lib tree is strict-clean" `Quick test_lib_tree_is_clean;
      ] );
  ]
