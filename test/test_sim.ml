module Simtime = Sof_sim.Simtime
module Engine = Sof_sim.Engine
module Cpu = Sof_sim.Cpu

(* -------------------------------------------------------------- Simtime *)

let test_simtime_constructors () =
  Alcotest.(check int) "us" 1_000 (Simtime.to_ns (Simtime.us 1));
  Alcotest.(check int) "ms" 1_000_000 (Simtime.to_ns (Simtime.ms 1));
  Alcotest.(check int) "sec" 1_000_000_000 (Simtime.to_ns (Simtime.sec 1));
  Alcotest.(check (float 1e-9)) "to_ms" 2.5 (Simtime.to_ms (Simtime.us 2500));
  Alcotest.(check int) "of_ms_float" 1_500_000 (Simtime.to_ns (Simtime.of_ms_float 1.5))

let test_simtime_negative_rejected () =
  Alcotest.check_raises "negative" (Invalid_argument "Simtime: negative duration")
    (fun () -> ignore (Simtime.ms (-1)))

let test_simtime_diff () =
  Alcotest.(check int) "diff" 500
    (Simtime.to_ns (Simtime.diff (Simtime.ns 1500) (Simtime.ns 1000)));
  Alcotest.check_raises "underflow" (Invalid_argument "Simtime.diff: negative result")
    (fun () -> ignore (Simtime.diff (Simtime.ns 1) (Simtime.ns 2)))

let test_simtime_scale () =
  Alcotest.(check int) "scale" 1_500 (Simtime.to_ns (Simtime.scale (Simtime.ns 1000) 1.5))

(* --------------------------------------------------------------- Engine *)

let test_engine_fires_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:(Simtime.ms 30) (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~delay:(Simtime.ms 10) (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:(Simtime.ms 20) (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock" 30_000_000 (Simtime.to_ns (Engine.now e))

let test_engine_ties_fire_in_schedule_order () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:(Simtime.ms 1) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:(Simtime.ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule e ~delay:(Simtime.ms 1) (fun () ->
                log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check int) "clock advanced twice" 2_000_000 (Simtime.to_ns (Engine.now e))

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:(Simtime.ms 1) (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check bool) "is_cancelled" true (Engine.is_cancelled h)

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(Simtime.ms i) (fun () -> incr count))
  done;
  Engine.run ~until:(Simtime.ms 5) e;
  Alcotest.(check int) "five fired" 5 !count;
  Alcotest.(check int) "clock at horizon" 5_000_000 (Simtime.to_ns (Engine.now e));
  Engine.run e;
  Alcotest.(check int) "rest fired" 10 !count

let test_engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore (Engine.schedule e ~delay:(Simtime.ms 1) (fun () -> incr count))
  done;
  Engine.run ~max_events:3 e;
  Alcotest.(check int) "three fired" 3 !count

let test_engine_past_scheduling_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:(Simtime.ms 5) (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: instant in the past")
    (fun () -> ignore (Engine.schedule_at e ~at:(Simtime.ms 1) (fun () -> ())))

let test_engine_pending () =
  let e = Engine.create () in
  let h = Engine.schedule e ~delay:(Simtime.ms 1) (fun () -> ()) in
  ignore (Engine.schedule e ~delay:(Simtime.ms 2) (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  Engine.cancel h;
  Alcotest.(check int) "one pending" 1 (Engine.pending e)

let test_engine_determinism () =
  let run_once () =
    let e = Engine.create ~seed:9L () in
    let rng = Engine.fork_rng e in
    let log = ref [] in
    for _ = 1 to 20 do
      let d = Simtime.us (1 + Sof_util.Rng.int rng 1000) in
      ignore (Engine.schedule e ~delay:d (fun () -> log := Simtime.to_ns (Engine.now e) :: !log))
    done;
    Engine.run e;
    !log
  in
  Alcotest.(check (list int)) "identical runs" (run_once ()) (run_once ())

(* ------------------------------------------------------------------ Cpu *)

let test_cpu_serializes_work () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let finishes = ref [] in
  let note () = finishes := Simtime.to_ns (Engine.now e) :: !finishes in
  (* Three 10ms jobs submitted together must finish at 10, 20, 30ms. *)
  Cpu.submit cpu ~cost:(Simtime.ms 10) note;
  Cpu.submit cpu ~cost:(Simtime.ms 10) note;
  Cpu.submit cpu ~cost:(Simtime.ms 10) note;
  Engine.run e;
  Alcotest.(check (list int)) "fifo finishes"
    [ 10_000_000; 20_000_000; 30_000_000 ]
    (List.rev !finishes)

let test_cpu_idle_starts_now () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let finish = ref 0 in
  ignore
    (Engine.schedule e ~delay:(Simtime.ms 50) (fun () ->
         Cpu.submit cpu ~cost:(Simtime.ms 5) (fun () ->
             finish := Simtime.to_ns (Engine.now e))));
  Engine.run e;
  Alcotest.(check int) "starts at submission" 55_000_000 !finish

let test_cpu_accounting () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  Cpu.submit cpu ~cost:(Simtime.ms 3) (fun () -> ());
  Cpu.submit cpu ~cost:(Simtime.ms 4) (fun () -> ());
  Engine.run e;
  Alcotest.(check int) "total busy" 7_000_000 (Simtime.to_ns (Cpu.total_busy cpu));
  Alcotest.(check int) "jobs" 2 (Cpu.jobs_executed cpu)

let test_cpu_queue_delay () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  Cpu.submit cpu ~cost:(Simtime.ms 10) (fun () -> ());
  Alcotest.(check int) "queue delay is backlog" 10_000_000
    (Simtime.to_ns (Cpu.queue_delay cpu));
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Simtime.to_ns (Cpu.queue_delay cpu))

let prop_engine_fires_all =
  QCheck.Test.make ~name:"engine fires every scheduled event once" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 10_000))
    (fun delays ->
      let e = Engine.create () in
      let count = ref 0 in
      List.iter
        (fun d -> ignore (Engine.schedule e ~delay:(Simtime.us d) (fun () -> incr count)))
        delays;
      Engine.run e;
      !count = List.length delays)

(* The engine against a model: the live events as a list, fired in (instant,
   scheduling order).  Scripts schedule, cancel, step and run to a horizon.
   Two schedules in five are 30 s watches, as SC arms per batch.  A cancel
   picks one of the last 8 handles issued, mostly still pending, or any
   handle ever issued, so double cancels and cancels after firing both
   occur, and cancelled watches pile up until the queue sheds them. *)
type model_op = Schedule of int | Cancel of int | Cancel_recent of int | Step | Run_until of int

let gen_model_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun d -> Schedule d) (int_bound 2_000));
        (2, return (Schedule 30_000_000));
        (4, map (fun i -> Cancel_recent i) (int_bound 7));
        (1, map (fun i -> Cancel i) (int_bound 1_000));
        (1, return Step);
        (1, map (fun d -> Run_until d) (int_bound 100));
      ])

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine fires and counts like a sorted list of live events"
    ~count:100
    QCheck.(make Gen.(list_size (400 -- 1_200) gen_model_op))
    (fun script ->
      let e = Engine.create () in
      let handles = Hashtbl.create 1024 and issued = ref 0 in
      let fired = ref [] and expected = ref [] in
      (* Live events as (instant ns, id), ids in scheduling order. *)
      let live = ref [] and cancelled = Hashtbl.create 64 in
      let clock = ref 0 in
      let fire_model () =
        match List.sort compare !live with
        | (at, id) :: rest ->
          live := rest;
          clock := at;
          expected := id :: !expected;
          true
        | [] -> false
      in
      let cancel id =
        Engine.cancel (Hashtbl.find handles id);
        if List.exists (fun (_, j) -> j = id) !live then begin
          live := List.filter (fun (_, j) -> j <> id) !live;
          Hashtbl.replace cancelled id ()
        end
      in
      let ok = ref true in
      let check cond = if not cond then ok := false in
      List.iter
        (fun op ->
          (match op with
          | Schedule d ->
            let id = !issued in
            incr issued;
            let h = Engine.schedule e ~delay:(Simtime.us d) (fun () -> fired := id :: !fired) in
            Hashtbl.replace handles id h;
            live := (!clock + (d * 1_000), id) :: !live
          | Cancel i when !issued > 0 -> cancel (i mod !issued)
          | Cancel_recent i when !issued > 0 -> cancel (max 0 (!issued - 1 - i))
          | Cancel _ | Cancel_recent _ -> ()
          | Step -> check (Engine.step e = fire_model ())
          | Run_until d ->
            let u = !clock + (d * 1_000) in
            Engine.run ~until:(Simtime.ns u) e;
            let rec go () =
              match List.sort compare !live with
              | (at, _) :: _ when at <= u -> if fire_model () then go ()
              | _ -> ()
            in
            go ();
            clock := max !clock u);
          check (Engine.pending e = List.length !live);
          check (Simtime.to_ns (Engine.now e) = !clock))
        script;
      Hashtbl.iter
        (fun id h -> check (Engine.is_cancelled h = Hashtbl.mem cancelled id))
        handles;
      Engine.run e;
      while fire_model () do () done;
      check (Engine.pending e = 0);
      !ok && !fired = !expected)

let suite =
  [
    ( "sim.simtime",
      [
        Alcotest.test_case "constructors" `Quick test_simtime_constructors;
        Alcotest.test_case "negative rejected" `Quick test_simtime_negative_rejected;
        Alcotest.test_case "diff" `Quick test_simtime_diff;
        Alcotest.test_case "scale" `Quick test_simtime_scale;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "time order" `Quick test_engine_fires_in_time_order;
        Alcotest.test_case "tie order" `Quick test_engine_ties_fire_in_schedule_order;
        Alcotest.test_case "nested" `Quick test_engine_nested_scheduling;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "run until" `Quick test_engine_run_until;
        Alcotest.test_case "max events" `Quick test_engine_max_events;
        Alcotest.test_case "past rejected" `Quick test_engine_past_scheduling_rejected;
        Alcotest.test_case "pending" `Quick test_engine_pending;
        Alcotest.test_case "determinism" `Quick test_engine_determinism;
        QCheck_alcotest.to_alcotest prop_engine_fires_all;
        QCheck_alcotest.to_alcotest prop_engine_matches_model;
      ] );
    ( "sim.cpu",
      [
        Alcotest.test_case "serializes" `Quick test_cpu_serializes_work;
        Alcotest.test_case "idle starts now" `Quick test_cpu_idle_starts_now;
        Alcotest.test_case "accounting" `Quick test_cpu_accounting;
        Alcotest.test_case "queue delay" `Quick test_cpu_queue_delay;
      ] );
  ]
