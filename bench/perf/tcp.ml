(* The real-clock workload: SC with f = 1 over loopback TCP, 2 ms batching,
   open-loop Poisson load paced on the wall clock by the calling thread,
   the workload's only generator. *)

(* Each runtime listens on 4 consecutive ports and never releases them
   before the process exits, so every start takes a fresh block.  Blocks
   sit below Linux's ephemeral range (32768 and up), where outbound
   connections take their ports; the process id spreads concurrent
   processes apart, and a taken block is skipped. *)
let block = ref 0

let start spans =
  let rec attempt tries =
    let k = ((Unix.getpid () * 16) + !block) mod 1500 in
    incr block;
    let base_port = 20_000 + (8 * k) in
    match Spans.timed spans ~cat:"runtime" ~name:"start" (fun () -> Sut.tcp_start ~base_port) with
    | started -> started
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when tries > 0 -> attempt (tries - 1)
  in
  attempt 20

(* A stopped runtime's worker threads still drain their queues for a while,
   writing to descriptors that a new runtime's sockets may already reuse;
   the next start waits until they are done. *)
let settle_s = 0.2

let stop spans rt =
  let res, _ = Spans.timed spans ~cat:"runtime" ~name:"stop" (fun () -> Sut.tcp_stop rt) in
  Thread.delay settle_s;
  res

(* After the load: [drain_s] seconds, then until the slowest replica has
   delivered no batch for [quiet_s], at most [max_drain_s] in all. *)
let quiet_s = 0.3
let max_drain_s = 10.0

let drain rt ~from ~drain_s =
  let rest = from +. drain_s -. Spans.now () in
  if rest > 0.0 then Thread.delay rest;
  let rec settle last =
    Thread.delay quiet_s;
    let count = Sut.tcp_min_delivered rt in
    if count <> last && Spans.now () < from +. max_drain_s then settle count
  in
  settle (Sut.tcp_min_delivered rt)

type rung = {
  rate : int;
  injected : int;
  lat_ms : float list;  (** one per delivered request *)
  setup_s : float;
  cpu_s : float;  (** process CPU, all threads, while the load was injected *)
  words : float;
  inject_us : float list;
  late_ms : float list;  (** how late the generator injected each request *)
  replicas : (int * string) list;  (** per replica: batches delivered, state digest *)
  peer_downs : int;
}

let delivered r = List.length r.lat_ms
let all_delivered r = delivered r = r.injected
let p99 l = if l = [] then 0.0 else Stats.percentile l 99.0

(* [run_s] seconds of arrivals at [rate] req/s, then a drain of at least
   [drain_s] seconds for the last batches to reach every replica. *)
let rung ~spans ~seed ~rate ~run_s ~drain_s =
  let rng = Sut.rng (Int64.of_int ((seed * 10_007) + rate)) in
  let mean = 1.0 /. float_of_int rate in
  let seqs = Array.make 4 0 in
  let rec gen t acc =
    let t = t +. Sut.exponential rng ~mean in
    if t >= run_s then Array.of_list (List.rev acc)
    else begin
      let client = Sut.uniform_int rng 4 in
      seqs.(client) <- seqs.(client) + 1;
      gen t ((t, Sut.make_request rng ~client ~client_seq:seqs.(client)) :: acc)
    end
  in
  let arrivals = gen 0.0 [] in
  let rt, setup_s = start spans in
  let inject_us = ref [] and late_ms = ref [] in
  let cpu0 = Spans.cpu () and w0 = Gc.minor_words () and t0 = Spans.now () in
  Array.iter
    (fun (offset, req) ->
      let due = t0 +. offset in
      let wait = due -. Spans.now () in
      if wait > 0.0 then Thread.delay wait;
      let a = Spans.now () in
      Sut.tcp_inject rt req;
      let b = Spans.now () in
      late_ms := ((a -. due) *. 1000.0) :: !late_ms;
      inject_us := ((b -. a) *. 1e6) :: !inject_us)
    arrivals;
  let t1 = Spans.now () in
  let cpu_s = Spans.cpu () -. cpu0 and words = Gc.minor_words () -. w0 in
  drain rt ~from:(t0 +. run_s) ~drain_s;
  Spans.sample_live ();
  let t2 = Spans.now () in
  let res = stop spans rt in
  let r =
    {
      rate;
      injected = Array.length arrivals;
      lat_ms = res.Sut.latencies_ms;
      setup_s;
      cpu_s;
      words;
      inject_us = !inject_us;
      late_ms = !late_ms;
      replicas = res.Sut.replicas;
      peer_downs = res.Sut.peer_downs;
    }
  in
  Spans.span spans ~cat:"runtime" ~name:(Printf.sprintf "load.r%d" rate) ~t0 ~t1
    ~args:
      [
        ("injected", float_of_int r.injected);
        ("gen_late_ms_p99", p99 r.late_ms);
        ("inject_us_p99", p99 r.inject_us);
      ]
    ();
  Spans.span spans ~cat:"runtime" ~name:"drain" ~t0:t1 ~t1:t2
    ~args:[ ("delivered", float_of_int (delivered r)); ("lat_p99_ms", p99 r.lat_ms) ]
    ();
  r

(* Replicas that delivered the same number of batches hold the same state. *)
let consistent r =
  List.for_all
    (fun (n, d) -> List.for_all (fun (n', d') -> n <> n' || String.equal d d') r.replicas)
    r.replicas

let caught_up r =
  match r.replicas with [] -> true | (n, _) :: rest -> List.for_all (fun (n', _) -> n = n') rest

(* [must_deliver] is false on ladder rungs above 1000 req/s, which may fall
   behind: that is what the ladder is there to find. *)
let problems ?(must_deliver = true) r =
  let counts () = String.concat " " (List.map (fun (n, _) -> string_of_int n) r.replicas) in
  (if all_delivered r || not must_deliver then []
   else [ Printf.sprintf "r%d: %d of %d requests delivered" r.rate (delivered r) r.injected ])
  @ (if caught_up r || not must_deliver then []
     else [ Printf.sprintf "r%d: replicas still behind after the drain (batches: %s)" r.rate (counts ()) ])
  @ (if consistent r then []
     else
       [
         Printf.sprintf "r%d: replicas with as many batches disagree on state (batches: %s)" r.rate
           (counts ());
       ])
  @
  if r.peer_downs = 0 then []
  else [ Printf.sprintf "r%d: %d connections dropped" r.rate r.peer_downs ]

let per_req r x = x /. float_of_int (max 1 (delivered r))
let failed_frac r = float_of_int (r.injected - delivered r) /. float_of_int (max 1 r.injected)

(* A start stopped at once: one more set-up sample. *)
let bare_setup_s () =
  let rt, s = start Spans.off in
  ignore (stop Spans.off rt);
  s

let e2e r =
  [
    ("cpu_us_per_op", per_req r r.cpu_s *. 1e6);
    ("alloc_words_per_op", per_req r r.words);
    ("lat_p50_ms", Stats.percentile r.lat_ms 50.0);
    ("lat_p99_ms", p99 r.lat_ms);
  ]

(* The highest rate an unloaded host can hold: p99 within this limit and
   every request delivered by the end of the drain. *)
let p99_limit_ms = 25.0
let ladder_rates = [ 500; 1000; 1500; 2000; 2500 ]
let holds r = all_delivered r && p99 r.lat_ms <= p99_limit_ms

(* The rate ladder, a fresh runtime per rung.  It stops at the first rung
   above 1000 req/s that does not hold. *)
let ladder ~spans ~seed ~rates ~run_s ~drain_s =
  let rec go acc = function
    | [] -> List.rev acc
    | rate :: rest ->
      let r = rung ~spans ~seed ~rate ~run_s ~drain_s in
      if rate > 1000 && not (holds r) then List.rev (r :: acc) else go (r :: acc) rest
  in
  go [] rates

(* CPU an idle runtime burns per wall second: its timer threads poll every
   millisecond. *)
let idle_cpu_ms_per_s ~spans ~idle_s =
  let rt, _ = start spans in
  let c0 = Spans.cpu () in
  Thread.delay idle_s;
  let ms = (Spans.cpu () -. c0) *. 1000.0 /. idle_s in
  ignore (stop spans rt);
  ms

let layers ~untraced ~rungs ~idle =
  let at rate = List.find_opt (fun r -> r.rate = rate) rungs in
  let main = Option.get (at 1000) in
  let max_rps = List.fold_left (fun a r -> if holds r then max a r.rate else a) 0 rungs in
  List.concat_map
    (fun rate ->
      let name m = Printf.sprintf "tcp.r%d.%s" rate m in
      match at rate with
      | Some r ->
        [
          (name "lat_p99_ms", p99 r.lat_ms);
          (name "failed_frac", failed_frac r);
        ]
      (* Not run: the ladder stopped below this rung. *)
      | None -> [ (name "lat_p99_ms", 0.0); (name "failed_frac", 1.0) ])
    ladder_rates
  @ [
      ("tcp.max_rps", float_of_int max_rps);
      ("runtime.cpu_ms_per_req", per_req main main.cpu_s *. 1000.0);
      ("runtime.idle_cpu_ms_per_s", idle);
      ("runtime.inject_us_p99", p99 main.inject_us);
      ("runtime.gen_late_ms_p99", p99 main.late_ms);
      ("runtime.peer_downs", float_of_int (List.fold_left (fun a r -> a + r.peer_downs) 0 rungs));
      ("failed_frac", failed_frac main);
      ("trace_overhead", per_req main main.cpu_s /. per_req untraced untraced.cpu_s);
    ]
