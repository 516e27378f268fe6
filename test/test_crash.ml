(* A crashed process stops.  Between its crash and its restart a process
   runs no network or client handler, fires no timer, emits no event and
   writes nothing to its disk — in the simulator, in the model checker's
   world and over real sockets alike.  One check runs against each driver:
   it reads everything the driver lets a test see of the victim when the
   crash lands, lets time pass while clients keep sending, and reads it
   again just before the restart. *)

module Simtime = Sof_sim.Simtime
module P = Sof_protocol
module Recovery = P.Recovery
module Replica = P.Replica
module Cluster = Sof_harness.Cluster
module World = Sof_check.World
module Runtime = Sof_runtime.Tcp_runtime
module Kv = Sof_smr.Kv_store
module Wal = Sof_storage.Wal

type driver = {
  crash : unit -> unit;
  idle : unit -> unit;  (** Let time pass while clients keep sending. *)
  restart : (unit -> unit) option;  (** The checker's worlds never restart. *)
  observe : unit -> string list;  (** What the driver shows of the victim. *)
}

let check_silent d =
  d.crash ();
  let at_crash = d.observe () in
  d.idle ();
  Alcotest.(check (list string)) "the crashed process did nothing" at_crash (d.observe ());
  match d.restart with
  | None -> ()
  | Some restart ->
    restart ();
    d.idle ();
    Alcotest.(check bool) "the restarted process runs again" true (d.observe () <> at_crash)

let request i =
  Sof_smr.Request.make ~client:1 ~client_seq:i
    ~op:(Kv.encode_op (Kv.Put (Printf.sprintf "k%d" i, "v")))

(* The victim's kernel: what it delivered, committed, minted and pooled,
   and its write-ahead log's counters. *)
let kernel_view p =
  let (Recovery.Kernel h) = Replica.kernel p in
  let log = h.Recovery.log in
  let wal =
    match log.Recovery.ctx.P.Context.store with
    | None -> "no disk"
    | Some store ->
      let s = Wal.stats store.P.Context.wal in
      Printf.sprintf "wal appends=%d syncs=%d checkpoints=%d" s.Wal.w_appends s.Wal.w_syncs
        s.Wal.w_checkpoints
  in
  [
    Printf.sprintf "delivered=%d committed=%d next=%d pooled=%d log=%d" log.Recovery.delivered
      log.Recovery.max_committed log.Recovery.next_seq
      (Sof_smr.Request.Key_map.cardinal log.Recovery.pending)
      (Replica.log_length p);
    wal;
  ]

let event_view events ~victim =
  List.filter_map
    (fun (_, who, ev) ->
      if who = victim then Some (Format.asprintf "%a" P.Context.pp_event ev) else None)
    events

(* SC f=1 over durable logs with the recovery slice's timers: the
   coordinator p0 crashes at 1 s under 50 req/s and restarts at 2.5 s. *)
let test_cluster () =
  let victim = 0 in
  let spec =
    {
      (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) with
      Cluster.batching_interval = Simtime.ms 50;
      heartbeat_interval = Simtime.ms 50;
      pair_delay_estimate = Simtime.ms 400;
      checkpoint_interval = 8;
      durable = true;
    }
  in
  let c = Cluster.build spec in
  let engine = Cluster.engine c in
  for i = 1 to 200 do
    ignore
      (Sof_sim.Engine.schedule_at engine
         ~at:(Simtime.ms (20 * i))
         (fun () -> Cluster.inject_request c (request i)))
  done;
  let now = ref Simtime.zero in
  let run_for ms =
    now := Simtime.add !now (Simtime.ms ms);
    Cluster.run c ~until:!now
  in
  run_for 1000;
  check_silent
    {
      crash = (fun () -> Cluster.crash c victim);
      idle = (fun () -> run_for 1500);
      restart = Some (fun () -> Cluster.restart c victim);
      observe =
        (fun () ->
          event_view (Cluster.events c) ~victim
          @ List.map
              (fun (m : Sof_harness.Trace.msg_count) ->
                Printf.sprintf "sent %s: %d msgs, %d bytes" m.Sof_harness.Trace.tag
                  m.Sof_harness.Trace.msgs m.Sof_harness.Trace.bytes)
              (Cluster.send_counts c victim)
          @ kernel_view (Cluster.proc c victim));
    }

(* The SC model with one crash: the coordinator crashes first, then the
   first enabled action runs, step after step. *)
let test_world () =
  let victim = 0 in
  let w = World.build { (Sof_check.Model.default Sof_check.Model.Sc) with crash_budget = 1 } in
  check_silent
    {
      crash = (fun () -> Result.get_ok (World.apply w (Sof_check.Schedule.Crash victim)));
      idle =
        (fun () ->
          let rec go n =
            match World.enabled w with
            | a :: _ when n > 0 ->
              Result.get_ok (World.apply w a);
              go (n - 1)
            | _ -> ()
          in
          go 60);
      restart = None;
      observe =
        (fun () ->
          event_view (World.events w) ~victim
          @ List.filter_map
              (fun (src, dst, payload) ->
                if src = victim then
                  Some (Printf.sprintf "sent %d bytes to %d" (String.length payload) dst)
                else None)
              (World.pending w));
    }

(* SC f=1 over loopback TCP with a data directory: replica 2 is killed
   while requests keep arriving, and its disk file must not change. *)
let test_tcp () =
  let victim = 2 in
  let dir = Filename.temp_dir "sof-crash" "" in
  let t =
    Runtime.start ~base_port:9311 ~kind:`Sc ~f:1 ~batching_interval_ms:15 ~checkpoint_interval:4
      ~data_dir:dir ()
  in
  let next = ref 0 in
  let send n =
    for _ = 1 to n do
      incr next;
      Runtime.inject t (request !next);
      Thread.delay 0.01
    done
  in
  send 10;
  Alcotest.(check bool) "delivering before the kill" true
    (Runtime.await_delivery t ~count:2 ~timeout_s:15.0);
  let disk = Filename.concat dir (Printf.sprintf "replica-%d.disk" victim) in
  check_silent
    {
      crash = (fun () -> Runtime.kill t victim);
      idle = (fun () -> send 40);
      restart = Some (fun () -> Runtime.restart t victim);
      observe = (fun () -> [ Digest.to_hex (Digest.file disk) ]);
    };
  Alcotest.(check (list (pair int string))) "no handler or timer faults" [] (Runtime.faults t);
  ignore (Runtime.stop t);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let suite =
  [
    ( "crash.silent",
      [
        Alcotest.test_case "cluster" `Quick test_cluster;
        Alcotest.test_case "world" `Quick test_world;
        Alcotest.test_case "tcp" `Slow test_tcp;
      ] );
  ]
