(* Unit tests for the protocol building blocks: configuration/layout,
   batching, the message codec, and fault descriptors. *)

module Simtime = Sof_sim.Simtime
module P = Sof_protocol
module Config = P.Config
module Batch = P.Batch
module Message = P.Message
module Request = Sof_smr.Request

(* --------------------------------------------------------------- Config *)

(* The paper's four layouts for f = 1..4: n and the number of pairs, with
   pair r = (primary r-1, shadow 2f+r) where there are pairs. *)
let check_layout kind ~n ~pairs =
  List.iter
    (fun f ->
      let c = Config.make ~kind ~f () in
      let name what = Printf.sprintf "%s f=%d %s" (P.Replica.name kind) f what in
      Alcotest.(check int) (name "processes") (n f) (Config.process_count c);
      Alcotest.(check int) (name "pairs") (pairs f) (Config.pair_count c);
      List.iter
        (fun id ->
          let rank, cp =
            if id < pairs f then (Some (id + 1), Some ((2 * f) + id + 1))
            else if id > 2 * f && id <= (2 * f) + pairs f then
              (Some (id - (2 * f)), Some (id - (2 * f) - 1))
            else (None, None)
          in
          Alcotest.(check (option int)) (name "pair rank") rank (Config.pair_rank_of c id);
          Alcotest.(check (option int)) (name "counterpart") cp (Config.counterpart c id))
        (Config.all_processes c))
    [ 1; 2; 3; 4 ]

let test_config_sc_layout () =
  let c = Config.make ~kind:Config.Sc_protocol ~f:2 () in
  Alcotest.(check int) "replicas" 5 (Config.replica_count c);
  Alcotest.(check int) "pairs" 2 (Config.pair_count c);
  Alcotest.(check int) "processes" 7 (Config.process_count c);
  Alcotest.(check int) "candidates" 3 (Config.candidate_count c);
  Alcotest.(check int) "p1" 0 (Config.primary_of_pair c 1);
  Alcotest.(check int) "p'1" 5 (Config.shadow_of_pair c 1);
  Alcotest.(check int) "p'2" 6 (Config.shadow_of_pair c 2);
  Alcotest.(check (list int)) "candidate 3 is unpaired p3" [ 2 ] (Config.candidate_members c 3);
  Alcotest.(check bool) "candidate 3 not a pair" false (Config.candidate_is_pair c 3);
  check_layout Config.Sc_protocol ~n:(fun f -> (3 * f) + 1) ~pairs:Fun.id

let test_config_scr_layout () =
  let c = Config.make ~kind:Config.Scr_protocol ~f:2 () in
  Alcotest.(check int) "processes" 8 (Config.process_count c);
  Alcotest.(check int) "pairs" 3 (Config.pair_count c);
  Alcotest.(check bool) "candidate 3 is a pair" true (Config.candidate_is_pair c 3);
  Alcotest.(check (list int)) "pair 3 members" [ 2; 7 ] (Config.candidate_members c 3);
  check_layout Config.Scr_protocol ~n:(fun f -> (3 * f) + 2) ~pairs:(fun f -> f + 1)

let test_config_bft_layout () =
  check_layout Config.Bft_protocol ~n:(fun f -> (3 * f) + 1) ~pairs:(fun _ -> 0)

let test_config_ct_layout () =
  check_layout Config.Ct_protocol ~n:(fun f -> (2 * f) + 1) ~pairs:(fun _ -> 0)

let test_config_counterpart_involution () =
  let c = Config.make ~kind:Config.Sc_protocol ~f:3 () in
  List.iter
    (fun id ->
      match Config.counterpart c id with
      | None -> Alcotest.(check (option int)) "unpaired" None (Config.pair_rank_of c id)
      | Some cp ->
        Alcotest.(check (option int)) "counterpart's counterpart" (Some id)
          (Config.counterpart c cp))
    (Config.all_processes c)

let test_config_rejects_bad_inputs () =
  List.iter
    (fun kind ->
      Alcotest.check_raises
        (P.Replica.name kind ^ " f=0")
        (Config.Invalid_config "Config.make: f must be at least 1")
        (fun () -> ignore (Config.make ~kind ~f:0 ())))
    P.Replica.kinds;
  let make = Config.make ~kind:Config.Sc_protocol in
  (* One check per timing field: zero and negative durations would arm
     timers that fire immediately (or never), so [make] must refuse them
     rather than let a cluster limp into spurious accusations. *)
  Alcotest.check_raises "zero batching interval"
    (Config.Invalid_config "Config.make: batching_interval must be positive")
    (fun () -> ignore (make ~batching_interval:Simtime.zero ~f:1 ()));
  Alcotest.check_raises "zero pair delay estimate"
    (Config.Invalid_config "Config.make: pair_delay_estimate must be positive")
    (fun () ->
      ignore (make ~pair_delay_estimate:Simtime.zero ~f:1 ()));
  Alcotest.check_raises "zero heartbeat interval"
    (Config.Invalid_config "Config.make: heartbeat_interval must be positive")
    (fun () -> ignore (make ~heartbeat_interval:Simtime.zero ~f:1 ()));
  Alcotest.check_raises "negative checkpoint interval"
    (Config.Invalid_config "Config.make: checkpoint_interval must be non-negative")
    (fun () -> ignore (make ~checkpoint_interval:(-1) ~f:1 ()));
  let c = make ~f:1 () in
  Alcotest.check_raises "rank 0" (Config.Invalid_config "Config: candidate rank 0 out of range")
    (fun () -> ignore (Config.primary_of_pair c 0));
  Alcotest.check_raises "unpaired shadow"
    (Config.Invalid_config "Config.shadow_of_pair: candidate is unpaired") (fun () ->
      ignore (Config.shadow_of_pair c 2));
  (* CT signs nothing and keeps MD5 whatever it is handed: Scheme.null
     digests with SHA-256, and the simulator passes the scheme's digest. *)
  let digest kind =
    (Config.make ~kind ~digest:Sof_crypto.Digest_alg.SHA256 ~f:1 ()).Config.digest
  in
  Alcotest.(check bool) "ct keeps MD5" true (digest Config.Ct_protocol = Sof_crypto.Digest_alg.MD5);
  Alcotest.(check bool) "bft takes SHA-256" true
    (digest Config.Bft_protocol = Sof_crypto.Digest_alg.SHA256)

let prop_config_layout_consistent =
  QCheck.Test.make ~name:"layout partitions processes for any f" ~count:50
    QCheck.(int_range 1 10)
    (fun f ->
      let check kind =
        let c = Config.make ~kind ~f () in
        let shadows =
          List.filter (fun id -> Config.is_shadow c id) (Config.all_processes c)
        in
        List.length shadows = Config.pair_count c
        && List.for_all
             (fun id ->
               match Config.pair_rank_of c id with
               | Some r ->
                 List.mem id (Config.candidate_members c r)
               | None -> not (Config.is_shadow c id))
             (Config.all_processes c)
      in
      List.for_all check P.Replica.kinds)

(* ---------------------------------------------------------------- Batch *)

let req i op = Request.make ~client:0 ~client_seq:i ~op

let test_batch_digest_stable () =
  let b = Batch.make [ req 1 "a"; req 2 "b" ] in
  Alcotest.(check string) "same digest"
    (Batch.digest Sof_crypto.Digest_alg.MD5 b)
    (Batch.digest Sof_crypto.Digest_alg.MD5 (Batch.make [ req 1 "a"; req 2 "b" ]));
  Alcotest.(check bool) "order matters" true
    (Batch.digest Sof_crypto.Digest_alg.MD5 b
    <> Batch.digest Sof_crypto.Digest_alg.MD5 (Batch.make [ req 2 "b"; req 1 "a" ]))

let test_batch_take_respects_limit () =
  let pool =
    List.fold_left
      (fun acc i -> Request.Key_map.add (req i (String.make 100 'x')).Request.key (req i (String.make 100 'x')) acc)
      Request.Key_map.empty
      (List.init 20 (fun i -> i + 1))
  in
  let taken = Batch.take_from_pool ~limit:500 ~pool in
  let size = Batch.encoded_size (Batch.make taken) in
  Alcotest.(check bool) "within limit" true (size <= 500);
  Alcotest.(check bool) "took several" true (List.length taken >= 4)

let test_batch_take_at_least_one () =
  (* A single oversized request must still be batched. *)
  let r = req 1 (String.make 5000 'x') in
  let pool = Request.Key_map.singleton r.Request.key r in
  Alcotest.(check int) "one taken" 1 (List.length (Batch.take_from_pool ~limit:100 ~pool))

let test_batch_take_oldest_order () =
  let r1 = req 5 "newer" and r2 = req 9 "older" in
  let pool =
    Request.Key_map.empty
    |> Request.Key_map.add r1.Request.key r1
    |> Request.Key_map.add r2.Request.key r2
  in
  let arrival =
    Request.Key_map.empty
    |> Request.Key_map.add r1.Request.key (Simtime.ms 50)
    |> Request.Key_map.add r2.Request.key (Simtime.ms 10)
  in
  match Batch.take_oldest ~limit:10_000 ~pool ~arrival with
  | [ first; second ] ->
    Alcotest.(check int) "older first" 9 first.Request.key.Request.client_seq;
    Alcotest.(check int) "newer second" 5 second.Request.key.Request.client_seq
  | other -> Alcotest.failf "expected 2 requests, got %d" (List.length other)

(* -------------------------------------------------------------- Message *)

let sample_info = { Message.o = 7; digest = "0123456789abcdef"; keys = [ { Request.client = 1; client_seq = 2 } ] }

let all_bodies =
  [
    Message.Order { c = 1; info = sample_info };
    Message.Ack { c = 2; o = 7; digest = "d" };
    Message.Fail_signal { pair = 1 };
    Message.Back_log
      {
        c = 2;
        failed_pair = 1;
        max_committed = 6;
        committed_digest = "cd";
        proof_c = 1;
        proof = [ (0, "sig0"); (3, "sig3") ];
        stable =
          Some
            {
              P.Checkpoint.cp_seq = 8;
              cp_digest = "id";
              cp_proof = [ (0, "cs0") ];
              cp_endorsement = Some (3, "ce3");
            };
        uncommitted = [ sample_info ];
      };
    Message.Start { c = 2; start_o = 8; anchor = 6; new_back_log = [ sample_info ] };
    Message.Start_ack { c = 2; start_digest = "sd" };
    Message.Start_tuples { c = 2; tuples = [ (4, "t4") ] };
    Message.View_change
      { v = 3; max_committed = 5; committed_digest = "x"; uncommitted = [ sample_info ] };
    Message.New_view { v = 3; start_o = 9; anchor = 5; new_back_log = [] };
    Message.Unwilling { v = 3; pair = 2 };
    Message.Heartbeat { pair = 1; beat = 42 };
    Message.Pre_prepare { v = 0; info = sample_info };
    Message.Prepare { v = 0; o = 7; digest = "d" };
    Message.Commit { v = 0; o = 7; digest = "d" };
    Message.Bft_view_change { v = 1; prepared = [ sample_info ] };
    Message.Bft_new_view { v = 1; pre_prepares = [ sample_info ] };
  ]

let test_message_body_roundtrip_all_variants () =
  List.iter
    (fun body ->
      let decoded = Message.decode_body (Message.encode_body body) in
      if decoded <> body then
        Alcotest.failf "roundtrip failed for %s" (Message.body_tag body))
    all_bodies

let test_message_envelope_roundtrip () =
  List.iter
    (fun endorsement ->
      let env = Message.forge ~sender:3 ~signature:"s1" ?endorsement (List.hd all_bodies) in
      Alcotest.(check bool) "roundtrip" true (Message.decode (Message.encode env) = env))
    [ None; Some (5, "s2") ]

let test_message_signature_count () =
  let body = Message.Heartbeat { pair = 1; beat = 1 } in
  let env = Message.forge ~sender:0 ~signature:"x" body in
  Alcotest.(check int) "single" 1 (Message.signature_count env);
  Alcotest.(check int) "double" 2
    (Message.signature_count (Message.forge ~sender:0 ~signature:"x" ~endorsement:(1, "y") body))

let test_message_tags_unique () =
  let tags = List.map Message.body_tag all_bodies in
  Alcotest.(check int) "unique tags" (List.length tags)
    (List.length (List.sort_uniq compare tags))

let test_message_decode_garbage () =
  Alcotest.check_raises "garbage" Sof_util.Codec.Reader.Truncated (fun () ->
      ignore (Message.decode "\xffgarbage"));
  Alcotest.check_raises "unknown tag" Sof_util.Codec.Reader.Truncated (fun () ->
      ignore (Message.decode_body "\x63"))

let test_message_endorsement_payload_binds_signature () =
  let body = Message.Ack { c = 1; o = 1; digest = "d" } in
  Alcotest.(check bool) "payload differs with first signature" true
    (Message.endorsement_payload body "sigA" <> Message.endorsement_payload body "sigB")

(* A toy signature scheme: a signature names its signer and repeats the
   bytes it covers. *)
let toy_sign id msg = string_of_int id ^ ":" ^ msg
let toy_verify ~signer ~msg ~signature = String.equal signature (toy_sign signer msg)

let test_message_sign_endorse_verify () =
  let body = Message.Order { c = 1; info = sample_info } in
  let env = Message.sign ~sender:0 ~sign:(toy_sign 0) body in
  Alcotest.(check string) "body bytes" (Message.encode_body body) env.Message.body_bytes;
  Alcotest.(check bool) "single verifies" true (Message.verify ~verify:toy_verify env);
  let endorsed = Message.endorse ~endorser:5 ~sign:(toy_sign 5) env in
  Alcotest.(check (option (pair int string))) "endorsement covers body and first signature"
    (Some (5, toy_sign 5 (Message.endorsement_payload body env.Message.signature)))
    endorsed.Message.endorsement;
  Alcotest.(check bool) "double verifies" true (Message.verify ~verify:toy_verify endorsed);
  let self = Message.endorse ~endorser:0 ~sign:(toy_sign 0) env in
  Alcotest.(check bool) "self-endorsement refused" false (Message.verify ~verify:toy_verify self);
  let received = Message.decode (Message.encode endorsed) in
  Alcotest.(check bool) "received copy equal" true (Message.equal endorsed received);
  Alcotest.(check bool) "received copy verifies" true (Message.verify ~verify:toy_verify received);
  let forged = Message.forge ~sender:0 ~signature:env.Message.signature
      (Message.Order { c = 2; info = sample_info }) in
  Alcotest.(check bool) "signature does not transfer to another body" false
    (Message.verify ~verify:toy_verify forged)

let test_message_overlong_rejected () =
  (* Heartbeat { pair = 1; beat = 42 } is 0a 01 2a; 81 00 is an overlong 1.
     A lenient reader would decode both to the same body, so a signature
     over one set of bytes would verify for the other. *)
  let body = Message.Heartbeat { pair = 1; beat = 42 } in
  Alcotest.(check string) "canonical bytes" "\x0a\x01\x2a" (Message.encode_body body);
  Alcotest.check_raises "overlong body" Sof_util.Codec.Reader.Truncated (fun () ->
      ignore (Message.decode_body "\x0a\x81\x00\x2a"));
  (* Sender 0 is the frame's first byte, 00; 80 00 says the same overlong. *)
  let frame = Message.encode (Message.forge ~sender:0 ~signature:"s" body) in
  let overlong = "\x80\x00" ^ String.sub frame 1 (String.length frame - 1) in
  Alcotest.(check int) "frame decodes" 0 (Message.decode frame).Message.sender;
  Alcotest.check_raises "overlong sender" Sof_util.Codec.Reader.Truncated (fun () ->
      ignore (Message.decode overlong))

(* Mutations of valid body encodings: a byte replaced, a byte inserted, or a
   terminal varint-sized byte stretched into an overlong two-byte form. *)
let gen_mutated_body =
  QCheck.Gen.(
    map
      (fun (k, pos, byte, mode) ->
        let s = Message.encode_body (List.nth all_bodies (k mod List.length all_bodies)) in
        let i = pos mod String.length s in
        let pre = String.sub s 0 i and post = String.sub s (i + 1) (String.length s - i - 1) in
        let c = s.[i] in
        match mode with
        | 0 -> pre ^ String.make 1 (Char.chr byte) ^ post
        | 1 -> pre ^ String.make 1 (Char.chr byte) ^ String.make 1 c ^ post
        | _ when Char.code c < 0x80 ->
          pre ^ String.make 1 (Char.chr (Char.code c lor 0x80)) ^ "\x00" ^ post
        | _ -> s)
      (quad nat nat (int_bound 255) (int_bound 2)))

let prop_decode_body_canonical =
  QCheck.Test.make ~name:"decode_body accepts only canonical bytes" ~count:2000
    (QCheck.make ~print:(fun s -> Sof_util.Hex.encode s) gen_mutated_body)
    (fun s ->
      match Message.decode_body s with
      | body -> String.equal (Message.encode_body body) s
      | exception Sof_util.Codec.Reader.Truncated -> true)

let gen_info =
  QCheck.Gen.(
    map3
      (fun o digest keys -> { Message.o; digest; keys })
      (int_bound 100000) (string_size (0 -- 32))
      (list_size (0 -- 8)
         (map2
            (fun c s -> { Request.client = c; client_seq = s })
            (int_bound 100) (int_bound 100000))))

let prop_order_roundtrip =
  QCheck.Test.make ~name:"order envelope roundtrip (arbitrary info)" ~count:200
    (QCheck.make gen_info)
    (fun info ->
      let env =
        Message.forge ~sender:1 ~signature:"sig" ~endorsement:(2, "end")
          (Message.Order { c = 3; info })
      in
      Message.decode (Message.encode env) = env)

(* ---------------------------------------------------------------- Fault *)

let test_fault_mute () =
  let f = P.Fault.Mute_at (Simtime.ms 100) in
  Alcotest.(check bool) "before" false (P.Fault.is_mute f ~now:(Simtime.ms 99));
  Alcotest.(check bool) "at" true (P.Fault.is_mute f ~now:(Simtime.ms 100));
  Alcotest.(check bool) "honest never mute" false
    (P.Fault.is_mute P.Fault.Honest ~now:(Simtime.sec 100))

(* ------------------------------------------------------------ Suspicion *)

module Timing = P.Timing
module Recovery = P.Recovery
module Estimator = Sof_net.Delay_estimator

let ms = Simtime.ms
let time = Alcotest.testable Simtime.pp (fun a b -> Simtime.compare a b = 0)

let test_timing_static_estimate () =
  let t = Timing.create ~mode:P.Config.Static ~initial:(ms 500) ~peers:4 in
  for level = 0 to 8 do
    for peer = 0 to 3 do
      Alcotest.(check time) "estimate is the base" (ms 500) (Timing.estimate t peer);
      Alcotest.(check time) "delay is the base" (ms 500) (Timing.suspicion_delay t ~leader:peer)
    done;
    if level < 8 then Timing.suspected t
  done;
  (* Static timing measures nothing: a probe echo leaves the base alone. *)
  Timing.note_probe_reply t ~now:(ms 30) ~src:2 ~nonce:1 ~at:0;
  Alcotest.(check time) "static ignores probes" (ms 500) (Timing.estimate t 2)

let test_timing_adaptive_estimate () =
  let t = Timing.create ~mode:P.Config.Adaptive ~initial:(ms 500) ~peers:4 in
  Alcotest.(check time) "base before any reply" (ms 500) (Timing.estimate t 2);
  Alcotest.(check time) "delay at level 0" (ms 500) (Timing.suspicion_delay t ~leader:2);
  Timing.note_probe_reply t ~now:(ms 30) ~src:2 ~nonce:1 ~at:0;
  let e = Estimator.create ~initial:(ms 500) () in
  Estimator.observe e (ms 30);
  let deadline = Estimator.timeout e in
  Alcotest.(check time) "the estimator's deadline" deadline (Timing.estimate t 2);
  Alcotest.(check time) "other peers keep the base" (ms 500) (Timing.estimate t 1);
  let cap = Simtime.ns (64 * Simtime.to_ns (ms 500)) in
  for level = 0 to 12 do
    let doubled = Simtime.ns (Simtime.to_ns deadline lsl level) in
    Alcotest.(check time)
      (Printf.sprintf "level %d doubles up to the cap" level)
      (Simtime.min doubled cap)
      (Timing.suspicion_delay t ~leader:2);
    Timing.suspected t
  done;
  Alcotest.(check time) "capped" cap (Timing.suspicion_delay t ~leader:2);
  Timing.trusted t;
  Alcotest.(check time) "level 0 after trusted" deadline (Timing.suspicion_delay t ~leader:2)

(* One kernel whose timers are recorded rather than run, on a clock the
   test moves: [fire] runs the oldest armed timer. *)
let watch_fixture ~mode ~id =
  let now = ref Simtime.zero in
  let timers = Queue.create () in
  let probes = ref [] in
  let ctx =
    {
      (Bare.context ~id ()) with
      P.Context.now = (fun () -> !now);
      set_timer =
        (fun ?kind:_ ~delay f ->
          Queue.push (delay, f) timers;
          P.Context.null_timer);
    }
  in
  let log =
    Recovery.create_log ~ctx ~service:(Bare.service ()) ~f:1 ~digest:Sof_crypto.Digest_alg.MD5
      ~interval:0
  in
  let hooks =
    {
      Recovery.log;
      timing = Timing.create ~mode ~initial:(ms 500) ~peers:4;
      scheme = Recovery.Quorum_counted { quorum = 1; member_ok = (fun _ -> true) };
      entry_quorum = 1;
      fault = P.Fault.Honest;
      retry_base = (fun () -> ms 500);
      committed_keys = (fun () -> None);
      keep_executed = false;
      settle_fresh_only = false;
      boundary = ignore;
      tail_entry = (fun _ () -> None);
      admit = (fun _ -> false);
      sign = P.Context.make_signed ctx;
      send =
        (fun ~dst (env : Message.envelope) ->
          match env.Message.body with
          | Message.Probe _ -> probes := dst :: !probes
          | _ -> ());
      multicast = ignore;
    }
  in
  let fire () =
    let delay, f = Queue.pop timers in
    Alcotest.(check time) "armed for one base period" (ms 500) delay;
    f ()
  in
  (hooks, now, timers, probes, fire)

let test_leader_watch_accuses_when_stalled () =
  let h, now, timers, probes, fire = watch_fixture ~mode:P.Config.Static ~id:0 in
  let accused = ref 0 in
  Recovery.watch_leader h ~batching:(ms 100)
    ~leader:(fun () -> 2)
    ~since:(fun () -> Simtime.zero)
    ~accuse:(fun () -> incr accused);
  Alcotest.(check int) "armed once" 1 (Queue.length timers);
  now := ms 700;
  fire ();
  Alcotest.(check int) "nothing waits: no accusation" 0 !accused;
  Alcotest.(check int) "re-armed" 1 (Queue.length timers);
  let log = h.Recovery.log in
  log.Recovery.arrival <-
    Request.Key_map.add { Request.client = 1; client_seq = 1 } (ms 200) log.Recovery.arrival;
  fire ();
  Alcotest.(check int) "within batching + delay of the arrival: no accusation" 0 !accused;
  now := ms 800;
  fire ();
  Alcotest.(check int) "stalled past batching + delay: accused" 1 !accused;
  Alcotest.(check int) "re-armed after the accusation" 1 (Queue.length timers);
  Alcotest.(check (list int)) "static timing never probes" [] !probes

let test_leader_watch_probes () =
  let h, _, _, probes, fire = watch_fixture ~mode:P.Config.Adaptive ~id:0 in
  let leader = ref 2 in
  Recovery.watch_leader h ~batching:(ms 100)
    ~leader:(fun () -> !leader)
    ~since:(fun () -> Simtime.zero)
    ~accuse:ignore;
  fire ();
  Alcotest.(check (list int)) "adaptive timing probes the leader" [ 2 ] !probes;
  leader := 0;
  fire ();
  Alcotest.(check (list int)) "never itself" [ 2 ] !probes;
  leader := 3;
  fire ();
  Alcotest.(check (list int)) "the current leader" [ 3; 2 ] !probes

(* An unpaired SC process: its pair machinery is idle, which is all the
   report table needs. *)
let test_pair_first_report_wins () =
  let config = Config.make ~kind:Config.Sc_protocol ~f:1 () in
  let hooks =
    {
      P.Pair.era = (fun _ -> 1);
      rank_of = (fun _ c -> c);
      settled = (fun _ -> false);
      up = (fun _ -> false);
      am_primary = (fun _ -> false);
      am_shadow = (fun _ -> false);
      transmit = (fun _ -> false);
      quorum = (fun _ -> 2);
      endorses_checkpoints = (fun _ -> false);
      down = (fun _ ~value_domain:_ -> ());
      pair_failed = (fun _ _ -> ());
    }
  in
  let t =
    P.Pair.create ~name:"test" ~ctx:(Bare.context ~id:1 ()) ~service:(Bare.service ()) ~config
      ~fault:P.Fault.Honest ~counterpart_fail_signal:None ~hooks ()
  in
  let info o = { Message.o; digest = "d" ^ string_of_int o; keys = [] } in
  let start ~start_o ~anchor ~new_back_log = Message.Start { c = 1; start_o; anchor; new_back_log } in
  Alcotest.(check bool) "first report recorded" true (P.Pair.add_report t ~era:1 ~src:2 (5, []));
  Alcotest.(check bool) "below quorum: no proposal" true
    (Option.is_none (P.Pair.propose t ~era:1 start));
  Alcotest.(check bool) "second report ignored" false
    (P.Pair.add_report t ~era:1 ~src:2 (9, [ info 10 ]));
  Alcotest.(check bool) "another era is another table" true
    (P.Pair.add_report t ~era:2 ~src:2 (9, []));
  Alcotest.(check bool) "another sender" true (P.Pair.add_report t ~era:1 ~src:3 (3, [ info 6 ]));
  Alcotest.(check (list int)) "era 1 keeps the first report, newest first" [ 3; 5 ]
    (List.map fst (P.Pair.reports t ~era:1));
  match P.Pair.propose t ~era:1 start with
  | Some { Message.body = Message.Start { start_o; anchor; new_back_log; _ }; _ } ->
    Alcotest.(check int) "anchor from the first report" 5 anchor;
    Alcotest.(check int) "start above the back-log" 7 start_o;
    Alcotest.(check (list int)) "back-log" [ 6 ]
      (List.map (fun (i : Message.order_info) -> i.Message.o) new_back_log)
  | Some _ | None -> Alcotest.fail "a quorum of reports proposes a Start"

let suite =
  [
    ( "protocol.config",
      [
        Alcotest.test_case "sc layout" `Quick test_config_sc_layout;
        Alcotest.test_case "scr layout" `Quick test_config_scr_layout;
        Alcotest.test_case "bft layout" `Quick test_config_bft_layout;
        Alcotest.test_case "ct layout" `Quick test_config_ct_layout;
        Alcotest.test_case "counterpart involution" `Quick test_config_counterpart_involution;
        Alcotest.test_case "bad inputs" `Quick test_config_rejects_bad_inputs;
        QCheck_alcotest.to_alcotest prop_config_layout_consistent;
      ] );
    ( "protocol.batch",
      [
        Alcotest.test_case "digest stable" `Quick test_batch_digest_stable;
        Alcotest.test_case "take respects limit" `Quick test_batch_take_respects_limit;
        Alcotest.test_case "take at least one" `Quick test_batch_take_at_least_one;
        Alcotest.test_case "take oldest order" `Quick test_batch_take_oldest_order;
      ] );
    ( "protocol.message",
      [
        Alcotest.test_case "body roundtrip all variants" `Quick
          test_message_body_roundtrip_all_variants;
        Alcotest.test_case "envelope roundtrip" `Quick test_message_envelope_roundtrip;
        Alcotest.test_case "signature count" `Quick test_message_signature_count;
        Alcotest.test_case "tags unique" `Quick test_message_tags_unique;
        Alcotest.test_case "decode garbage" `Quick test_message_decode_garbage;
        Alcotest.test_case "endorsement payload" `Quick
          test_message_endorsement_payload_binds_signature;
        QCheck_alcotest.to_alcotest prop_order_roundtrip;
        Alcotest.test_case "sign, endorse, verify" `Quick test_message_sign_endorse_verify;
        Alcotest.test_case "overlong varints rejected" `Quick test_message_overlong_rejected;
        QCheck_alcotest.to_alcotest prop_decode_body_canonical;
      ] );
    ( "protocol.fault",
      [ Alcotest.test_case "mute" `Quick test_fault_mute ] );
    ( "protocol.suspicion",
      [
        Alcotest.test_case "static estimate is the base" `Quick test_timing_static_estimate;
        Alcotest.test_case "adaptive estimate backs off" `Quick test_timing_adaptive_estimate;
        Alcotest.test_case "leader watch accuses when stalled" `Quick
          test_leader_watch_accuses_when_stalled;
        Alcotest.test_case "leader watch probes another leader" `Quick test_leader_watch_probes;
        Alcotest.test_case "first report per sender wins" `Quick test_pair_first_report_wins;
      ] );
  ]
