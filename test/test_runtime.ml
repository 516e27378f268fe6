(* End-to-end test of the TCP runtime: the same protocol code that runs
   under the simulator, over real loopback sockets and threads. *)

module Runtime = Sof_runtime.Tcp_runtime
module Kv = Sof_smr.Kv_store

let run_cluster ~kind ~base_port =
  let t = Runtime.start ~base_port ~kind ~f:1 ~batching_interval_ms:15 () in
  for i = 1 to 40 do
    Runtime.inject t
      (Sof_smr.Request.make ~client:1 ~client_seq:i
         ~op:(Kv.encode_op (Kv.Put (Printf.sprintf "k%d" i, "v"))));
    Thread.delay 0.002
  done;
  let delivered_everywhere = Runtime.await_delivery t ~count:1 ~timeout_s:15.0 in
  Thread.delay 0.4;
  let stats = Runtime.stop t in
  (delivered_everywhere, stats)

let check_stats (delivered_everywhere, stats) =
  Alcotest.(check bool) "every process delivered" true delivered_everywhere;
  (match List.map snd stats.Runtime.state_digests with
  | [] -> Alcotest.fail "no digests"
  | d :: rest ->
    List.iteri
      (fun i d' ->
        if d' <> d then Alcotest.failf "state divergence at process %d" (i + 1))
      rest);
  Alcotest.(check bool) "latencies recorded" true
    (stats.Runtime.commit_latencies_ms <> [])

let test_tcp_sc () = check_stats (run_cluster ~kind:`Sc ~base_port:7711)

let test_tcp_scr () = check_stats (run_cluster ~kind:`Scr ~base_port:7811)

let test_tcp_bft () = check_stats (run_cluster ~kind:`Bft ~base_port:8311)

let test_tcp_ct () = check_stats (run_cluster ~kind:`Ct ~base_port:8411)

(* A stopped runtime releases its listening ports: a second runtime starts
   on the same ports at once, and its cluster orders requests (no accept
   thread of the first one is left to take its connections). *)
let test_tcp_stop_releases_ports () =
  let first = Runtime.start ~base_port:9011 ~kind:`Sc ~f:1 ~batching_interval_ms:15 () in
  ignore (Runtime.stop first);
  check_stats (run_cluster ~kind:`Sc ~base_port:9011)

(* Abrupt crash mid-run: kill the unpaired (non-candidate) replica of an SCR
   cluster with a socket reset.  Every peer's reader must survive the broken
   connection (logged peer-down, not a crash), and the survivors must keep
   ordering and delivering post-kill requests. *)
let test_tcp_kill () =
  let victim = 2 in
  let t = Runtime.start ~base_port:7911 ~kind:`Scr ~f:1 ~batching_interval_ms:15 () in
  for i = 1 to 6 do
    Runtime.inject t
      (Sof_smr.Request.make ~client:1 ~client_seq:i
         ~op:(Kv.encode_op (Kv.Put (Printf.sprintf "pre%d" i, "v"))));
    Thread.delay 0.002
  done;
  Alcotest.(check bool) "delivering before the kill" true
    (Runtime.await_delivery t ~count:1 ~timeout_s:15.0);
  Runtime.kill t victim;
  for i = 1 to 40 do
    Runtime.inject t
      (Sof_smr.Request.make ~client:1 ~client_seq:(100 + i)
         ~op:(Kv.encode_op (Kv.Put (Printf.sprintf "post%d" i, "v"))));
    Thread.delay 0.002
  done;
  let progressed = Runtime.await_delivery t ~count:4 ~timeout_s:15.0 in
  Thread.delay 0.4;
  let downs = Runtime.peer_downs t in
  let stats = Runtime.stop t in
  Alcotest.(check bool) "survivors delivered past the kill" true progressed;
  Alcotest.(check bool) "peers observed the disconnect" true
    (List.exists (fun (_, peer, _) -> peer = victim) downs);
  (match
     List.filter_map
       (fun (who, d) -> if who = victim then None else Some d)
       stats.Runtime.state_digests
   with
  | [] -> Alcotest.fail "no survivor digests"
  | d :: rest ->
    List.iter
      (fun d' -> if d' <> d then Alcotest.fail "survivor state divergence")
      rest)

(* Crash-restart over real sockets: kill a replica, keep the cluster moving
   long enough that checkpoints go stable and the log is truncated behind
   them, then bring the replica back with empty volatile state.  The comeback
   must re-dial the mesh, fetch the certified checkpoint image through state
   transfer (replaying history is impossible — it was truncated), deliver
   again, and converge on the survivors' state digest.  Process 2 is never
   a coordinator candidate in SC, is SCR's unpaired replica, a PBFT backup
   and a CT follower. *)
let tcp_restart ~kind ~base_port () =
  let victim = 2 in
  let t =
    Runtime.start ~base_port ~kind ~f:1 ~batching_interval_ms:15
      ~checkpoint_interval:4 ()
  in
  for i = 1 to 6 do
    Runtime.inject t
      (Sof_smr.Request.make ~client:1 ~client_seq:i
         ~op:(Kv.encode_op (Kv.Put (Printf.sprintf "pre%d" i, "v"))));
    Thread.delay 0.002
  done;
  Alcotest.(check bool) "delivering before the kill" true
    (Runtime.await_delivery t ~count:1 ~timeout_s:15.0);
  Runtime.kill t victim;
  (* Enough traffic while the victim is down that checkpoints form and old
     log entries are discarded. *)
  for i = 1 to 40 do
    Runtime.inject t
      (Sof_smr.Request.make ~client:1 ~client_seq:(100 + i)
         ~op:(Kv.encode_op (Kv.Put (Printf.sprintf "mid%d" i, "v"))));
    Thread.delay 0.002
  done;
  Alcotest.(check bool) "survivors progress while the victim is down" true
    (Runtime.await_delivery t ~count:4 ~timeout_s:15.0);
  Runtime.restart t victim;
  (* Spaced injections so post-restart traffic spans many batching
     intervals; await_delivery counts the comeback again, so passing the
     higher bar requires the restarted process to deliver post-rejoin. *)
  for i = 1 to 20 do
    Runtime.inject t
      (Sof_smr.Request.make ~client:1 ~client_seq:(200 + i)
         ~op:(Kv.encode_op (Kv.Put (Printf.sprintf "post%d" i, "v"))));
    Thread.delay 0.02
  done;
  Alcotest.(check bool) "restarted process delivers after rejoining" true
    (Runtime.await_delivery t ~count:6 ~timeout_s:20.0);
  Thread.delay 1.0;
  let stats = Runtime.stop t in
  match List.map snd stats.Runtime.state_digests with
  | [] -> Alcotest.fail "no digests"
  | d :: rest ->
    List.iteri
      (fun i d' ->
        if d' <> d then Alcotest.failf "state divergence at process %d" (i + 1))
      rest

let suite =
  [
    ( "runtime.tcp",
      [
        Alcotest.test_case "sc over loopback" `Slow test_tcp_sc;
        Alcotest.test_case "scr over loopback" `Slow test_tcp_scr;
        Alcotest.test_case "bft over loopback" `Slow test_tcp_bft;
        Alcotest.test_case "ct over loopback" `Slow test_tcp_ct;
        Alcotest.test_case "scr survives an abrupt peer kill" `Slow test_tcp_kill;
        Alcotest.test_case "stop releases the listening ports" `Slow
          test_tcp_stop_releases_ports;
        Alcotest.test_case "scr crash-restart rejoins via state transfer" `Slow
          (tcp_restart ~kind:`Scr ~base_port:8011);
        Alcotest.test_case "sc crash-restart rejoins via state transfer" `Slow
          (tcp_restart ~kind:`Sc ~base_port:8711);
        Alcotest.test_case "bft crash-restart rejoins via state transfer" `Slow
          (tcp_restart ~kind:`Bft ~base_port:8511);
        Alcotest.test_case "ct crash-restart rejoins via state transfer" `Slow
          (tcp_restart ~kind:`Ct ~base_port:8611);
      ] );
  ]
