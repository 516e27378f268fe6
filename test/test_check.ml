(* The model checker checking itself: the bounded tiny models must exhaust
   clean for all four protocol cores, and the seeded digest-blind mutant
   must be caught with a minimal counterexample that replays to the same
   violation.  These are the CI-facing guarantees of `sof check`; the
   heavier boundary configurations live in the check-smoke CI job. *)

module C = Sof_check
module I = Sof_harness.Invariants

let tiny p = C.Model.default p

let run ?(depth = 40) spec = C.Explore.run spec ~depth

let outcome_label = function
  | C.Explore.Exhausted -> "exhausted"
  | C.Explore.Depth_capped -> "depth-capped"
  | C.Explore.Violation v ->
    Printf.sprintf "violation of %s" v.C.Explore.result.I.name

(* The exact `sof check --stats` counts are pinned: the protocol cores'
   reachable state space is part of their observable behaviour, so a
   refactor of shared core code must leave these unchanged.  Every field
   but [replays] is pinned; [replays] counts fresh worlds, a cost of the
   search rather than a property of the model. *)
let searched ~states ~transitions ~pruned_visited ~pruned_sleep ~pruned_ample
    ~cap_hits ~max_depth =
  {
    C.Explore.states;
    transitions;
    pruned_visited;
    pruned_sleep;
    pruned_ample;
    cap_hits;
    max_depth;
    replays = 0;
  }

let check_stats (want : C.Explore.stats) (got : C.Explore.stats) =
  List.iter
    (fun (name, field) -> Alcotest.(check int) name (field want) (field got))
    [
      ("states", fun s -> s.C.Explore.states);
      ("transitions", fun s -> s.C.Explore.transitions);
      ("pruned_visited", fun s -> s.C.Explore.pruned_visited);
      ("pruned_sleep", fun s -> s.C.Explore.pruned_sleep);
      ("pruned_ample", fun s -> s.C.Explore.pruned_ample);
      ("cap_hits", fun s -> s.C.Explore.cap_hits);
      ("max_depth", fun s -> s.C.Explore.max_depth);
    ]

let test_search ?(depth = 40) ?(crash_budget = 0) ?use_sleep ?use_ample
    ?(batches = 1) p ~outcome want () =
  let r =
    C.Explore.run ?use_sleep ?use_ample
      { (tiny p) with C.Model.crash_budget; batches }
      ~depth
  in
  let got = outcome_label r.C.Explore.outcome in
  if not (String.equal got outcome) then
    Alcotest.failf "%s: expected %s, got %s" (C.Model.protocol_name p) outcome got;
  check_stats want r.C.Explore.stats

let test_exhausts = test_search ~outcome:"exhausted"
let mutant_spec =
  {
    (C.Model.default C.Model.Bft) with
    C.Model.digest_blind = true;
    equivocate = Some 1;
  }

let find_counterexample () =
  match (run mutant_spec).C.Explore.outcome with
  | C.Explore.Violation v -> v
  | o -> Alcotest.failf "mutant survived: %s" (outcome_label o)

let test_mutant_caught () =
  let v = find_counterexample () in
  Alcotest.(check string) "the digest-blind bug is a coherence violation"
    "commit-coherence" v.C.Explore.result.I.name

let test_counterexample_replays () =
  let v = find_counterexample () in
  match C.Explore.replay_violation mutant_spec v.C.Explore.schedule with
  | Some r ->
    Alcotest.(check string) "replay re-triggers the same invariant"
      v.C.Explore.result.I.name r.I.name
  | None -> Alcotest.fail "reported schedule replayed clean"

let test_counterexample_minimal () =
  let v = find_counterexample () in
  let sched = v.C.Explore.schedule in
  List.iteri
    (fun i _ ->
      let cand = List.filteri (fun j _ -> not (Int.equal i j)) sched in
      match C.Explore.replay_violation mutant_spec cand with
      | Some r when String.equal r.I.name v.C.Explore.result.I.name ->
        Alcotest.failf "step %d is removable: schedule is not minimal" i
      | Some _ | None -> ())
    sched

let test_equivocation_alone_is_safe () =
  (* Without the mutant the equivocating primary is caught by digest
     checks: the same adversary must not produce any violation. *)
  let spec = { mutant_spec with C.Model.digest_blind = false } in
  match (run spec).C.Explore.outcome with
  | C.Explore.Violation v ->
    Alcotest.failf "honest bft violated %s under equivocation"
      v.C.Explore.result.I.name
  | C.Explore.Exhausted | C.Explore.Depth_capped -> ()

let test_schedule_roundtrip () =
  let sched =
    [ C.Schedule.Fire 1; C.Schedule.Deliver 0; C.Schedule.Crash 2;
      C.Schedule.Deliver 14 ]
  in
  match C.Schedule.decode (C.Schedule.encode sched) with
  | Ok back ->
    Alcotest.(check bool) "decode (encode s) = s" true
      (List.length back = List.length sched
      && List.for_all2 C.Schedule.equal_action back sched)
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let test_replay_rejects_infeasible () =
  match C.Explore.replay (tiny C.Model.Ct) [ C.Schedule.Deliver 9999 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "delivering an unknown message must be infeasible"

(* The Buffer-then-hash accumulator that [Fingerprint] streamed away,
   kept as the reference its digests must equal bit for bit. *)
module Reference_fp = struct
  let create () = Buffer.create 256

  let add_string b s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s

  let add_int b n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ';'

  let add_bool b v = add_int b (if v then 1 else 0)

  let digest b =
    let h = ref 0xCBF29CE484222325L in
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001B3L)
      (Buffer.contents b);
    !h
end

type field = Int of int | Str of string | Bool of bool

let test_fingerprint_reference () =
  let digests fields =
    let acc = C.Fingerprint.create () and b = Reference_fp.create () in
    List.iter
      (function
        | Int n ->
          C.Fingerprint.add_int acc n;
          Reference_fp.add_int b n
        | Str s ->
          C.Fingerprint.add_string acc s;
          Reference_fp.add_string b s
        | Bool v ->
          C.Fingerprint.add_bool acc v;
          Reference_fp.add_bool b v)
      fields;
    (C.Fingerprint.digest acc, Reference_fp.digest b)
  in
  let same label fields =
    let got, want = digests fields in
    Alcotest.(check int64) label want got
  in
  same "no fields" [];
  same "edge ints"
    [ Int 0; Int (-1); Int 1; Int (-10); Int 9; Int 10; Int min_int; Int max_int ];
  same "empty strings" [ Str ""; Str ""; Int 0; Str "" ];
  same "bools" [ Bool true; Bool false; Bool false ];
  same "high bytes" [ Str (String.init 256 Char.chr) ];
  let rng = Sof_util.Rng.create 19L in
  for case = 1 to 200 do
    let field () =
      match Sof_util.Rng.int rng 4 with
      | 0 -> Int (Sof_util.Rng.int rng 2_000_001 - 1_000_000)
      | 1 -> Int (Int64.to_int (Sof_util.Rng.int64 rng))
      | 2 ->
        Str (Bytes.to_string (Sof_util.Rng.bytes rng (Sof_util.Rng.int rng 40)))
      | _ -> Bool (Sof_util.Rng.bool rng)
    in
    same
      (Printf.sprintf "random fields %d" case)
      (List.init (Sof_util.Rng.int rng 12) (fun _ -> field ()))
  done

(* The explorer hands a node's world to its first child and steps it in
   place; every other child replays its schedule from a fresh world.  The
   two must be indistinguishable to the search.  Walks share one
   [World.base] per model, as the explorer's worlds do; the replays build
   their own. *)
let walk_models =
  [
    ("sc", tiny C.Model.Sc);
    ("scr", tiny C.Model.Scr);
    ("bft", tiny C.Model.Bft);
    ("ct", tiny C.Model.Ct);
    ("ct with one crash", { (tiny C.Model.Ct) with C.Model.crash_budget = 1 });
    ("bft mutant", mutant_spec);
    ("sc with two batches", { (tiny C.Model.Sc) with C.Model.batches = 2 });
  ]

let test_stepped_equals_replayed () =
  let verdict w =
    Option.map (fun r -> (r.I.name, r.I.detail)) (C.World.violation w)
  in
  List.iter
    (fun (name, spec) ->
      let base = C.World.base spec in
      for walk = 1 to 3 do
        let rng = Sof_util.Rng.create (Int64.of_int walk) in
        let w = C.World.of_base base in
        let rec go sched_rev steps =
          match C.World.enabled w with
          | [] -> ()
          | en when steps < 30 -> (
            let a = List.nth en (Sof_util.Rng.int rng (List.length en)) in
            (match C.World.apply w a with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: enabled action infeasible: %s" name e);
            let sched = List.rev (a :: sched_rev) in
            let at =
              Printf.sprintf "%s walk %d after %s" name walk (C.Schedule.encode sched)
            in
            match C.Explore.replay spec sched with
            | Error e -> Alcotest.failf "%s: replay failed: %s" at e
            | Ok r ->
              Alcotest.(check int64) (at ^ ": fingerprint") (C.World.fingerprint r)
                (C.World.fingerprint w);
              Alcotest.(check string) (at ^ ": enabled")
                (C.Schedule.encode (C.World.enabled r))
                (C.Schedule.encode (C.World.enabled w));
              Alcotest.(check (option (pair string string))) (at ^ ": violation")
                (verdict r) (verdict w);
              go (a :: sched_rev) (steps + 1))
          | _ -> ()
        in
        go [] 0
      done)
    walk_models

(* The explorer's memos are exact.  A model's worlds share one base, whose
   signature memo answers for the keyring; and each process's events are
   hashed as they are emitted, not walked again by each fingerprint.  Per
   model, one base is warmed by 50 seeded random walks; the same walks
   then step a world of the warmed base and a world of a fresh base side
   by side, and every state must agree on its fingerprint, enabled
   actions, verdict and every pending payload (the payloads carry the
   signatures). *)
let memo_walks = 50

let walk ~seed worlds ~at =
  let rng = Sof_util.Rng.create (Int64.of_int seed) in
  let rec go step =
    at step;
    match C.World.enabled (List.hd worlds) with
    | en when en <> [] && step < 30 ->
      let a = List.nth en (Sof_util.Rng.int rng (List.length en)) in
      List.iter
        (fun w ->
          match C.World.apply w a with
          | Ok () -> ()
          | Error e -> Alcotest.failf "walk %d step %d: enabled action infeasible: %s" seed step e)
        worlds;
      go (step + 1)
    | _ -> ()
  in
  go 0

let test_memos_exact () =
  let verdict w =
    Option.map (fun r -> (r.I.name, r.I.detail)) (C.World.violation w)
  in
  List.iter
    (fun (name, spec) ->
      let warm = C.World.base spec in
      for seed = 1 to memo_walks do
        walk ~seed [ C.World.of_base warm ] ~at:ignore
      done;
      for seed = 1 to memo_walks do
        let w = C.World.of_base warm and r = C.World.of_base (C.World.base spec) in
        walk ~seed [ w; r ] ~at:(fun step ->
            let at = Printf.sprintf "%s walk %d step %d" name seed step in
            Alcotest.(check int64) (at ^ ": fingerprint") (C.World.fingerprint r)
              (C.World.fingerprint w);
            Alcotest.(check string) (at ^ ": enabled")
              (C.Schedule.encode (C.World.enabled r))
              (C.Schedule.encode (C.World.enabled w));
            Alcotest.(check (option (pair string string))) (at ^ ": violation")
              (verdict r) (verdict w);
            Alcotest.(check (list (triple int int string))) (at ^ ": pending")
              (C.World.pending r) (C.World.pending w))
      done)
    walk_models

(* A recorded signature binds its signer, payload and bytes: given to any
   other signer, with one byte of its payload changed or with one byte of
   its own changed, it is rejected.  CT signs nothing. *)
let test_recorded_signatures_bind () =
  let flip s i =
    String.mapi (fun j c -> if Int.equal i j then Char.chr (Char.code c lxor 0x01) else c) s
  in
  List.iter
    (fun p ->
      let spec = tiny p in
      let base = C.World.base spec in
      let n = C.World.process_count (C.World.of_base base) in
      let msg = "order seq=1 digest=" ^ String.make 16 'd' in
      let sigs = Array.init n (fun signer -> C.World.sign base ~signer msg) in
      let fresh = C.World.base spec in
      Array.iteri
        (fun signer signature ->
          let name = Printf.sprintf "%s p%d" (C.Model.protocol_name p) signer in
          let verify ?(signer = signer) ?(msg = msg) signature =
            C.World.verify base ~signer ~msg ~signature
          in
          Alcotest.(check string) (name ^ ": the memo signs as the keyring")
            (C.World.sign fresh ~signer msg) signature;
          Alcotest.(check string) (name ^ ": signed again from the memo") signature
            (C.World.sign base ~signer msg);
          Alcotest.(check bool) (name ^ ": verifies") true (verify signature);
          for other = 0 to n - 1 do
            if not (Int.equal other signer) then
              Alcotest.(check bool)
                (Printf.sprintf "%s: rejected as p%d's" name other)
                false (verify ~signer:other signature)
          done;
          List.iter
            (fun i ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: payload byte %d changed" name i)
                false
                (verify ~msg:(flip msg i) signature))
            [ 0; String.length msg / 2; String.length msg - 1 ];
          for i = 0 to String.length signature - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "%s: signature byte %d changed" name i)
              false
              (verify (flip signature i))
          done)
        sigs)
    C.Model.[ Sc; Scr; Bft ]

let suite =
  [
    ( "check.explore",
      [
        Alcotest.test_case "sc tiny model exhausts clean" `Slow
          (test_exhausts C.Model.Sc
             (searched ~states:134 ~transitions:125 ~pruned_visited:1
                ~pruned_sleep:0 ~pruned_ample:827 ~cap_hits:8 ~max_depth:21));
        Alcotest.test_case "scr tiny model exhausts clean" `Slow
          (test_exhausts C.Model.Scr
             (searched ~states:279 ~transitions:265 ~pruned_visited:1
                ~pruned_sleep:0 ~pruned_ample:3089 ~cap_hits:13 ~max_depth:31));
        Alcotest.test_case "bft tiny model exhausts clean" `Slow
          (test_exhausts C.Model.Bft
             (searched ~states:246 ~transitions:233 ~pruned_visited:1
                ~pruned_sleep:0 ~pruned_ample:2094 ~cap_hits:12 ~max_depth:29));
        Alcotest.test_case "ct tiny model exhausts clean" `Quick
          (test_exhausts C.Model.Ct
             (searched ~states:27 ~transitions:24 ~pruned_visited:1
                ~pruned_sleep:0 ~pruned_ample:74 ~cap_hits:2 ~max_depth:10));
        Alcotest.test_case "ct with one crash exhausts clean" `Slow
          (test_exhausts ~crash_budget:1 C.Model.Ct
             (searched ~states:2036 ~transitions:2032 ~pruned_visited:894
                ~pruned_sleep:1894 ~pruned_ample:0 ~cap_hits:123 ~max_depth:11));
        (* The unreduced searches cross-validate the reductions: each must
           exhaust the same model clean. *)
        Alcotest.test_case "ct without ample exhausts clean" `Quick
          (test_exhausts ~use_ample:false C.Model.Ct
             (searched ~states:508 ~transitions:505 ~pruned_visited:285
                ~pruned_sleep:292 ~pruned_ample:0 ~cap_hits:26 ~max_depth:10));
        Alcotest.test_case "ct without ample or sleep sets exhausts clean" `Quick
          (test_exhausts ~use_ample:false ~use_sleep:false C.Model.Ct
             (searched ~states:800 ~transitions:797 ~pruned_visited:577
                ~pruned_sleep:0 ~pruned_ample:0 ~cap_hits:26 ~max_depth:10));
        Alcotest.test_case "ct without sleep sets exhausts clean" `Quick
          (test_exhausts ~use_sleep:false C.Model.Ct
             (searched ~states:27 ~transitions:24 ~pruned_visited:1
                ~pruned_sleep:0 ~pruned_ample:74 ~cap_hits:2 ~max_depth:10));
        Alcotest.test_case "sc with two batches is depth-capped at 12" `Slow
          (test_search ~depth:12 ~batches:2 C.Model.Sc ~outcome:"depth-capped"
             (searched ~states:4689 ~transitions:4685 ~pruned_visited:969
                ~pruned_sleep:3587 ~pruned_ample:14343 ~cap_hits:862 ~max_depth:12));
        Alcotest.test_case "digest-blind mutant is caught" `Slow test_mutant_caught;
        Alcotest.test_case "counterexample replays to the same violation" `Slow
          test_counterexample_replays;
        Alcotest.test_case "counterexample is minimal" `Slow
          test_counterexample_minimal;
        Alcotest.test_case "equivocation without the mutant is safe" `Slow
          test_equivocation_alone_is_safe;
        Alcotest.test_case "schedule encode/decode roundtrip" `Quick
          test_schedule_roundtrip;
        Alcotest.test_case "replay rejects infeasible schedules" `Quick
          test_replay_rejects_infeasible;
        Alcotest.test_case "fingerprints equal the buffered reference" `Quick
          test_fingerprint_reference;
        Alcotest.test_case "a world stepped in place equals its replay" `Slow
          test_stepped_equals_replayed;
        Alcotest.test_case "worlds of a warmed base equal a fresh base's" `Slow
          test_memos_exact;
        Alcotest.test_case "recorded signatures bind signer, payload and bytes" `Quick
          test_recorded_signatures_bind;
      ] );
  ]
