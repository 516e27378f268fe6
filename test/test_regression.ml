(* Chaos regression seeds, promoted into `dune runtest`.

   Each seed replays one full Nemesis campaign — lossy substrate,
   partitions, surges, plus a crash or a seeded Byzantine fault — and the
   run must satisfy every protocol invariant.  The campaigns are
   deterministic in (protocol, byz, seed), so a failure here is a
   replayable bug: `sof chaos --protocol <p> [--byz] --seed <n>`
   reproduces it exactly. *)

module Simtime = Sof_sim.Simtime
module H = Sof_harness

let check_campaign ?auth ~kind ~byz ~seed () =
  let layers = H.Nemesis.(if byz then [ Lossy; Byzantine ] else [ Lossy ]) in
  let report =
    H.Nemesis.run ?auth ~layers ~kind ~f:1 ~seed ~duration:(Simtime.sec 10) ()
  in
  (* A Byzantine campaign must actually have drawn a fault — otherwise
     fs-accountability passes vacuously.  CT has no Byzantine model and
     keeps its crash instead. *)
  if byz && kind <> H.Cluster.Ct_protocol then
    Alcotest.(check bool)
      (Printf.sprintf "byz fault drawn (seed %Ld)" seed)
      true
      (report.H.Nemesis.plan.H.Nemesis.byz_faults <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "invariant %s (seed %Ld)" r.H.Invariants.name seed)
        true r.H.Invariants.pass)
    report.H.Nemesis.invariants;
  Alcotest.(check bool)
    (Printf.sprintf "campaign verdict (seed %Ld)" seed)
    true report.H.Nemesis.passed

let case ?auth ~kind ~byz ~proto seed =
  let mac =
    match auth with Some Sof_crypto.Keyring.Mac -> " --auth mac" | _ -> ""
  in
  Alcotest.test_case
    (Printf.sprintf "%s%s%s seed %Ld" proto
       (if byz then " --byz" else "")
       mac seed)
    `Slow
    (check_campaign ?auth ~kind ~byz ~seed)

(* Crash-restart campaigns: the crash target comes back mid-run with empty
   volatile state and must rejoin through checkpointed state transfer.
   Replay with `sof chaos --protocol <p> --restart --seed <n>`. *)
let check_restart_campaign ?auth ~kind ~seed () =
  let report =
    H.Nemesis.run ?auth ~layers:[ Lossy; Restart ] ~kind ~f:1 ~seed
      ~duration:(Simtime.sec 10) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "someone restarted (seed %Ld)" seed)
    true
    (report.H.Nemesis.restarted <> []);
  (match report.H.Nemesis.recovery with
  | None -> Alcotest.fail "restart campaign ran without checkpointing"
  | Some r ->
    Alcotest.(check int)
      (Printf.sprintf "every restart recovered (seed %Ld)" seed)
      r.H.Metrics.rc_restarts r.H.Metrics.rc_recovered);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "invariant %s (seed %Ld)" r.H.Invariants.name seed)
        true r.H.Invariants.pass)
    report.H.Nemesis.invariants;
  Alcotest.(check bool)
    (Printf.sprintf "campaign verdict (seed %Ld)" seed)
    true report.H.Nemesis.passed

let restart_case ?auth ~kind ~proto seed =
  let mac =
    match auth with Some Sof_crypto.Keyring.Mac -> " --auth mac" | _ -> ""
  in
  Alcotest.test_case
    (Printf.sprintf "%s --restart%s seed %Ld" proto mac seed)
    `Slow
    (check_restart_campaign ?auth ~kind ~seed)

let suite =
  [
    ( "regression.chaos",
      List.map
        (case ~kind:H.Cluster.Ct_protocol ~byz:true ~proto:"ct")
        [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 42L ]
      @ List.map
          (case ~kind:H.Cluster.Ct_protocol ~byz:false ~proto:"ct")
          [ 5L; 42L; 99L ]
      (* seed 2 draws corrupt_digest at the coordinator primary: a
         value-domain fault, hence a fail-signal and an SC install
         fail-over inside the campaign. *)
      @ [ case ~kind:H.Cluster.Sc_protocol ~byz:true ~proto:"sc" 2L ]
      (* seed 1 mutes the coordinator primary mid-run, forcing an SCR
         view-change fail-over. *)
      @ [ case ~kind:H.Cluster.Scr_protocol ~byz:true ~proto:"scr" 1L ]
      (* The same Byzantine campaigns under MAC wire authentication:
         fail-signal accountability must still convict when the quorum
         phases carry authenticator vectors instead of signatures —
         accountable bodies (orders, fail-signals, checkpoints) keep
         transferable scheme signatures either way. *)
      @ [
          case ~auth:Sof_crypto.Keyring.Mac ~kind:H.Cluster.Sc_protocol
            ~byz:true ~proto:"sc" 2L;
          case ~auth:Sof_crypto.Keyring.Mac ~kind:H.Cluster.Scr_protocol
            ~byz:true ~proto:"scr" 1L;
        ]
      (* Restart under MAC auth: state-transfer certificates stay on the
         asymmetric path, so rejoin must work identically. *)
      @ List.map
          (fun (kind, proto) ->
            restart_case ~auth:Sof_crypto.Keyring.Mac ~kind ~proto 1L)
          [
            (H.Cluster.Sc_protocol, "sc");
            (H.Cluster.Scr_protocol, "scr");
            (H.Cluster.Bft_protocol, "bft");
          ]
      @ List.concat_map
          (fun (kind, proto) ->
            List.map (restart_case ~kind ~proto) [ 1L; 2L; 3L ])
          [
            (H.Cluster.Ct_protocol, "ct");
            (H.Cluster.Sc_protocol, "sc");
            (H.Cluster.Scr_protocol, "scr");
            (H.Cluster.Bft_protocol, "bft");
          ] );
  ]

(* ------------------------------------------------------- CI chaos pins *)

(* Every `sof chaos` line of the CI workflow, with the digest its output
   must reproduce.  A classic campaign pins the fingerprint of its whole
   printed report; a gray campaign pins a projection of it (plan steps,
   invariant lines, suspicion churn, deliveries, injected requests and
   network traffic); the endurance run is held to its verdict only.  A
   refactor of the campaign runner must leave every digest unchanged. *)

type flags = {
  kind : H.Cluster.kind;
  f : int;
  seed : int64;
  byz : bool;
  restart : bool;
  durable : bool;
  disk_faults : bool;
  long : bool;
  gray : bool;
  static : bool;
  mac : bool;
}

let parse_flags line =
  let rec go acc = function
    | [] -> acc
    | "--protocol" :: p :: rest ->
      let kind =
        match p with
        | "sc" -> H.Cluster.Sc_protocol
        | "scr" -> H.Cluster.Scr_protocol
        | "bft" -> H.Cluster.Bft_protocol
        | "ct" -> H.Cluster.Ct_protocol
        | _ -> Alcotest.failf "unknown protocol %s" p
      in
      go { acc with kind } rest
    | "--seed" :: s :: rest -> go { acc with seed = Int64.of_string s } rest
    | "--f" :: n :: rest -> go { acc with f = int_of_string n } rest
    | "--byz" :: rest -> go { acc with byz = true } rest
    | "--restart" :: rest -> go { acc with restart = true } rest
    | "--durable" :: rest -> go { acc with durable = true } rest
    | "--disk-faults" :: rest -> go { acc with disk_faults = true } rest
    | "--long" :: rest -> go { acc with long = true } rest
    | "--gray" :: rest -> go { acc with gray = true } rest
    | "--timing" :: "static" :: rest -> go { acc with static = true } rest
    | "--auth" :: "mac" :: rest -> go { acc with mac = true } rest
    | arg :: _ -> Alcotest.failf "unexpected chaos argument %s" arg
  in
  go
    {
      kind = H.Cluster.Sc_protocol;
      f = 1;
      seed = 7L;
      byz = false;
      restart = false;
      durable = false;
      disk_faults = false;
      long = false;
      gray = false;
      static = false;
      mac = false;
    }
    (List.filter (( <> ) "") (String.split_on_char ' ' line))

let digest_of lines =
  let acc = Sof_check.Fingerprint.create () in
  List.iter (Sof_check.Fingerprint.add_string acc) lines;
  Sof_check.Fingerprint.digest acc

(* The layers `sof chaos` selects for these flags, or its rejection. *)
let layers_of_flags fl =
  if fl.long && fl.gray then Error "--long with --gray"
  else if fl.static && not fl.gray then Error "--timing without --gray"
  else
    let base =
      if fl.long then []
      else if fl.gray then
        [
          H.Nemesis.Gray
            (if fl.static then Sof_protocol.Config.Static
             else Sof_protocol.Config.Adaptive);
        ]
      else [ H.Nemesis.Lossy ]
    in
    let layers =
      base
      @ List.filter_map
          (fun (on, layer) -> if on then Some layer else None)
          H.Nemesis.
            [
              (fl.byz, Byzantine);
              (fl.restart, Restart);
              (fl.durable || fl.disk_faults, Durable);
              (fl.disk_faults, Disk_faults);
            ]
    in
    let auth = if fl.mac then Sof_crypto.Keyring.Mac else Sof_crypto.Keyring.Sign in
    match H.Nemesis.rejection ~auth layers with
    | Some msg -> Error msg
    | None -> Ok (layers, auth)

let run_flags fl =
  match layers_of_flags fl with
  | Error msg -> Alcotest.failf "rejected: %s" msg
  | Ok (layers, auth) ->
    H.Nemesis.run ~auth ~layers ~kind:fl.kind ~f:fl.f ~seed:fl.seed
      ~duration:(Simtime.sec 10) ()

(* A gray campaign's pinned projection. *)
let gray_projection (r : H.Nemesis.report) =
  let steps =
    List.map
      (fun { H.Nemesis.at; action } ->
        Format.asprintf "%8.1fms  %a" (Simtime.to_ms at) H.Nemesis.pp_action action)
      r.H.Nemesis.plan.H.Nemesis.steps
  in
  let invariants =
    List.map (Format.asprintf "%a" H.Invariants.pp_result) r.H.Nemesis.invariants
  in
  let fail_signals, view_changes, rotations = r.H.Nemesis.churn in
  let counts =
    List.map string_of_int
      [
        fail_signals;
        view_changes;
        rotations;
        r.H.Nemesis.min_honest_deliveries;
        r.H.Nemesis.injected;
        r.H.Nemesis.net.Sof_net.Network.messages_sent;
        r.H.Nemesis.net.Sof_net.Network.messages_delivered;
      ]
  in
  steps @ invariants @ counts

let ci_lines =
  [
    ("--protocol scr --seed 42", Some 0xfaa6fbc0c8afca34L);
    ("--protocol ct --seed 42", Some 0x44b8d228a15d49e7L);
    ("--protocol sc --seed 1 --byz", Some 0x309ae608757a8b9fL);
    ("--protocol sc --seed 4 --byz", Some 0x49490d382432ce24L);
    ("--protocol scr --seed 3 --byz", Some 0x90fe5989b74dfa8cL);
    ("--protocol scr --seed 6 --byz", Some 0x83634e3bbfff5e36L);
    ("--protocol ct --seed 5 --byz", Some 0xd5561cc20a33f8f5L);
    ("--protocol sc --seed 2 --byz --auth mac", Some 0xea31af77e3f14aa0L);
    ("--protocol scr --seed 1 --byz --auth mac", Some 0xda6edf2247de20b1L);
    ("--protocol sc --seed 1 --restart --auth mac", Some 0xb316da8f2d4c860aL);
    ("--protocol bft --seed 1 --restart --auth mac", Some 0x43e34c2ec9cd5939L);
    ("--protocol ct --seed 1 --restart", Some 0xc622a472b04f3aaeL);
    ("--protocol sc --seed 2 --restart", Some 0x4ef0e121a58aaaeL);
    ("--protocol scr --seed 3 --restart", Some 0xe7c6682ff47638e9L);
    ("--protocol bft --seed 1 --restart", Some 0x61f46ad88db1ae4fL);
    ("--protocol bft --seed 1 --long", None);
    ("--protocol ct --seed 3 --restart --disk-faults", Some 0xc85a1e9448aafc5dL);
    ("--protocol sc --seed 3 --restart --disk-faults", Some 0xeba902f739375ee1L);
    ("--protocol scr --seed 3 --restart --disk-faults", Some 0x9832cbd57ece7a3fL);
    ("--protocol bft --seed 3 --restart --disk-faults", Some 0x64fa67edb381b8b3L);
    ("--protocol bft --seed 1 --f 2 --restart --disk-faults", Some 0x99e30f8ccb6785d8L);
    ("--protocol scr --seed 2 --byz --disk-faults", Some 0x6fafa3764569070eL);
    ("--protocol sc --seed 3 --byz --restart --disk-faults", Some 0xa4a7e5f7529f613eL);
    ("--protocol sc --seed 9 --byz --restart --disk-faults", Some 0x12c33004fb581ef3L);
    ("--protocol scr --seed 1 --byz --restart --disk-faults", Some 0x6f000e431573a9e7L);
    ("--protocol bft --seed 1 --byz --restart --disk-faults", Some 0x535511140333a62eL);
    ("--protocol sc --seed 1 --gray", Some 0x1871760a287c1f63L);
    ("--protocol scr --seed 2 --gray", Some 0xa0169cc51d91a420L);
    ("--protocol bft --seed 1 --gray", Some 0x9d0600e068faf807L);
    ("--protocol ct --seed 1 --gray", Some 0x65e2e20e425cea9aL);
    ("--protocol sc --seed 7 --gray --durable", Some 0xa97d763a3307ab51L);
    ("--protocol sc --seed 1 --gray --timing static", Some 0x87b5f5985928a416L);
  ]

let check_ci_line (line, pin) () =
  let fl = parse_flags line in
  let r = run_flags fl in
  match pin with
  | None -> Alcotest.(check bool) "endurance run passes" true r.H.Nemesis.passed
  | Some expected ->
    let pinned =
      if fl.gray then gray_projection r
      else [ Format.asprintf "%a" H.Nemesis.pp_report r ]
    in
    Alcotest.(check string) "pinned digest" (Printf.sprintf "0x%LxL" expected)
      (Printf.sprintf "0x%LxL" (digest_of pinned));
    (* The static gray run is CI's expected failure. *)
    Alcotest.(check bool) "verdict" (not fl.static) r.H.Nemesis.passed

(* The flag combinations `sof chaos` accepted before its flags became
   layers, recorded by running all 256 combinations of the flags below. *)
let accepted_before_layers =
  [
    "";
    "--byz";
    "--restart";
    "--durable";
    "--byz --durable";
    "--restart --durable";
    "--disk-faults";
    "--byz --disk-faults";
    "--restart --disk-faults";
    "--durable --disk-faults";
    "--byz --durable --disk-faults";
    "--restart --durable --disk-faults";
    "--long";
    "--gray";
    "--durable --gray";
    "--gray --timing static";
    "--durable --gray --timing static";
    "--auth mac";
    "--byz --auth mac";
    "--restart --auth mac";
    "--durable --auth mac";
    "--byz --durable --auth mac";
    "--restart --durable --auth mac";
    "--disk-faults --auth mac";
    "--byz --disk-faults --auth mac";
    "--restart --disk-faults --auth mac";
    "--durable --disk-faults --auth mac";
    "--byz --durable --disk-faults --auth mac";
    "--restart --durable --disk-faults --auth mac";
    "--long --auth mac";
  ]

(* The one rule the layers added: a Byzantine restart campaign is legal on
   a durable cluster, where the fault moves to the repair path. *)
let accepted_since_layers =
  [
    "--byz --restart --durable";
    "--byz --restart --disk-faults";
    "--byz --restart --durable --disk-faults";
    "--byz --restart --durable --auth mac";
    "--byz --restart --disk-faults --auth mac";
    "--byz --restart --durable --disk-faults --auth mac";
  ]

let test_layer_rules () =
  let flags =
    [
      "--byz"; "--restart"; "--durable"; "--disk-faults"; "--long"; "--gray";
      "--timing static"; "--auth mac";
    ]
  in
  List.iter
    (fun m ->
      let line =
        String.concat " " (List.filteri (fun b _ -> (m lsr b) land 1 = 1) flags)
      in
      Alcotest.(check bool)
        (Printf.sprintf "chaos %s accepted" line)
        (List.mem line (accepted_before_layers @ accepted_since_layers))
        (Result.is_ok (layers_of_flags (parse_flags line))))
    (List.init 256 Fun.id)

let suite =
  suite
  @ [
      ( "regression.ci-chaos",
        List.map
          (fun ((line, _) as row) ->
            Alcotest.test_case line `Slow (check_ci_line row))
          ci_lines );
      ( "regression.chaos-layers",
        [ Alcotest.test_case "accepted flag combinations" `Quick test_layer_rules ] );
    ]
