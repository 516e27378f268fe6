(* The simulator workloads: [steady] (fail-free ordering) and [failover]
   (a follower's crash and restart, then the coordinator's crash, over
   durable logs).  One rep runs SC, SCR, BFT and CT in turn on the same
   seeded arrival list. *)

type shape = {
  profile : Sut.profile;
  rate : float;  (** offered load, req/s, open loop *)
  inject_until_ms : float;
  end_ms : float;
  restart_last : (float * float) option;
      (** the highest-numbered process goes down, then comes back *)
  crash_coordinator_ms : float option;  (** process 0 goes down for good *)
}

let steady ~virtual_s =
  {
    profile = Sut.Steady;
    rate = 80.0;
    inject_until_ms = virtual_s *. 1000.0;
    (* Two seconds of drain let the last batches certify. *)
    end_ms = (virtual_s +. 2.0) *. 1000.0;
    restart_last = None;
    crash_coordinator_ms = None;
  }

(* A follower is down over [follower_down] (seconds from, to) and recovers
   from its own log; the coordinator crashes at [crash_s] and stays down.
   Arrivals stop 5 s before [end_s], time enough for BFT's view change
   (about 4 s here) to certify the last of them.  The follower goes first
   because restarting a replica after a view change left BFT's restarted
   replica without a delivery (and SCR with uncertified requests) on most
   seeds. *)
let failover ~follower_down:(down_s, up_s) ~crash_s ~end_s =
  let ms s = s *. 1000.0 in
  {
    profile = Sut.Failover;
    rate = 80.0;
    inject_until_ms = ms (end_s -. 5.0);
    end_ms = ms end_s;
    restart_last = Some (ms down_s, ms up_s);
    crash_coordinator_ms = Some (ms crash_s);
  }

(* ------------------------------------------------------------ arrivals *)

type arrival = { at_ms : float; req : Sut.request; key : Sut.key }

let clients = 4

(* Poisson arrivals at [rate] from 4 clients (each client's share is itself
   Poisson), drawn from the benchmark's own seeded stream. *)
let arrivals ~seed shape =
  let rng = Sut.rng (Int64.of_int seed) in
  let mean = 1000.0 /. shape.rate in
  let seqs = Array.make clients 0 in
  let rec go t acc =
    let t = t +. Sut.exponential rng ~mean in
    if t >= shape.inject_until_ms then Array.of_list (List.rev acc)
    else begin
      let client = Sut.uniform_int rng clients in
      seqs.(client) <- seqs.(client) + 1;
      let req = Sut.make_request rng ~client ~client_seq:seqs.(client) in
      go t ({ at_ms = t; req; key = Sut.request_key req } :: acc)
    end
  in
  go 0.0 []

(* --------------------------------------------------------- one protocol *)

(* Everything a run computes on the virtual clock or counts.  A traced rep
   of the same arrivals must reproduce it exactly. *)
type virt = {
  lat_ms : float array;  (** injection to certification, per certified request *)
  uncertified : int;
  outage_ms : float;
  events_fired : int;
  event_rows : int;
  sends : (string * int * int) list;
  crypto : Sut.crypto;
  storage : Sut.storage;
  recovery : Sut.recovery;
  order : float * float * float * float;
      (** batch wait p50, order p50, reply p50 (virtual ms), requests per batch *)
  verdicts : Sut.verdict list;
}

type run = {
  protocol : Sut.protocol;
  virt : virt;
  run_wall_s : float;
  run_cpu_s : float;
  run_speed : float;
      (** host speed over the run, from the probes between slices (1 on a
          traced run, which takes none) *)
  run_words : float;
  events_call_s : float;
  reduce_s : float;
  invariants_s : float;
  delivered_msgs : int;
  (* Traced reps only. *)
  pending_max : int;
  heap_growth_kw_per_vs : float;
  phases : (string * float) list;
}

(* A request is certified when its (f+1)-th distinct replica delivers it:
   the reply a client can trust.  Rows arrive in emission order. *)
let certify rows =
  let seen = Hashtbl.create 4096 and cert = Hashtbl.create 4096 in
  List.iter
    (fun (r : Sut.row) ->
      match r.Sut.ev with
      | Sut.Delivered { keys } ->
        List.iter
          (fun k ->
            if not (Hashtbl.mem cert k) then begin
              let procs = Option.value (Hashtbl.find_opt seen k) ~default:[] in
              if not (List.mem r.Sut.proc procs) then
                if List.length procs + 1 >= Sut.sim_f + 1 then begin
                  Hashtbl.replace cert k r.Sut.t_ms;
                  Hashtbl.remove seen k
                end
                else Hashtbl.replace seen k (r.Sut.proc :: procs)
            end)
          keys
      | _ -> ())
    rows;
  cert

let p50_or_zero = function [] -> 0.0 | l -> Stats.median l

(* Where a certified request's virtual time went: waiting to be batched,
   batch to first commit, first commit to certification. *)
let order_breakdown rows arrivals cert =
  let batched = Hashtbl.create 1024 and committed = Hashtbl.create 1024 in
  let batches = ref 0 and batched_reqs = ref 0 in
  List.iter
    (fun (r : Sut.row) ->
      match r.Sut.ev with
      | Sut.Batched { seq; requests } when not (Hashtbl.mem batched seq) ->
        Hashtbl.replace batched seq r.Sut.t_ms;
        incr batches;
        batched_reqs := !batched_reqs + requests
      | Sut.Committed { seq; keys } when not (Hashtbl.mem committed seq) ->
        Hashtbl.replace committed seq (r.Sut.t_ms, keys)
      | _ -> ())
    rows;
  let seq_of = Hashtbl.create 4096 in
  let order = ref [] in
  Hashtbl.iter
    (fun seq (t, keys) ->
      List.iter (fun k -> Hashtbl.replace seq_of k seq) keys;
      match Hashtbl.find_opt batched seq with
      | Some b -> order := (t -. b) :: !order
      | None -> ())
    committed;
  let wait = ref [] and reply = ref [] in
  Array.iter
    (fun a ->
      match (Hashtbl.find_opt seq_of a.key, Hashtbl.find_opt cert a.key) with
      | Some seq, Some c ->
        (match Hashtbl.find_opt batched seq with
        | Some b -> wait := (b -. a.at_ms) :: !wait
        | None -> ());
        reply := (c -. fst (Hashtbl.find committed seq)) :: !reply
      | _ -> ())
    arrivals;
  ( p50_or_zero !wait,
    p50_or_zero !order,
    p50_or_zero !reply,
    if !batches = 0 then 0.0 else float_of_int !batched_reqs /. float_of_int !batches )

let run_protocol ~shape ~arrivals ~(spans : Spans.t) ~on_payload ~sample_live protocol =
  let traced = spans.Spans.on in
  let name = Sut.protocol_name protocol in
  let start = Spans.now () in
  let c, _ =
    Spans.timed spans ~cat:"sim" ~name:(name ^ ".build") (fun () ->
        Sut.build ~profile:shape.profile ~protocol)
  in
  (* One generator: each arrival schedules the next, so the engine holds a
     single pending arrival, as a live client would. *)
  let rec arm i =
    if i < Array.length arrivals then
      Sut.at_ms c arrivals.(i).at_ms (fun () ->
          Sut.inject c arrivals.(i).req;
          arm (i + 1))
  in
  arm 0;
  let last = Sut.process_count c - 1 in
  Option.iter
    (fun (down, up) ->
      Sut.at_ms c down (fun () -> Sut.crash c last);
      Sut.at_ms c up (fun () -> Sut.restart c last))
    shape.restart_last;
  Option.iter (fun at -> Sut.at_ms c at (fun () -> Sut.crash c 0)) shape.crash_coordinator_ms;
  if traced then Sut.on_deliver c on_payload;
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  let pending_max = ref 0 in
  let gauge = Spans.gauge () in
  let run_wall_s = ref 0.0 and run_cpu_s = ref 0.0 and run_words = ref 0.0 in
  (* Cluster.run advances in slices of virtual time, which leaves every
     virtual result as one call would.  A traced run records a span per
     slice; an untraced one probes the host's speed between slices, long
     enough that the probes add under a tenth to the run. *)
  let slice_ms = if traced then 100.0 else 5000.0 in
  let rec slice until =
    let until = Float.min until shape.end_ms in
    let s0 = Spans.now () and c0 = Spans.cpu () and sw0 = Gc.minor_words () in
    Sut.run c ~until_ms:until;
    let s1 = Spans.now () and sw1 = Gc.minor_words () in
    run_cpu_s := !run_cpu_s +. (Spans.cpu () -. c0);
    run_wall_s := !run_wall_s +. (s1 -. s0);
    run_words := !run_words +. (sw1 -. sw0);
    if traced then begin
      let heap = (Gc.quick_stat ()).Gc.heap_words and pending = Sut.pending c in
      pending_max := max !pending_max pending;
      Spans.span spans ~cat:"sim" ~name:(name ^ ".run") ~t0:s0 ~t1:s1
        ~args:
          [
            ("virtual_ms", until);
            ("minor_words", sw1 -. sw0);
            ("heap_words", float_of_int heap);
          ]
        ();
      Spans.counter spans ~cat:"sim" ~name:"engine" ~at:s1
        [ ("pending", float_of_int pending); ("heap_kw", float_of_int heap /. 1000.0) ]
    end
    else Spans.probe gauge 1;
    if until < shape.end_ms then slice (until +. slice_ms)
  in
  slice slice_ms;
  (* The parent of this protocol's build and run spans. *)
  Spans.span spans ~cat:"sim" ~name ~t0:start ~t1:(Spans.now ()) ();
  let run_wall_s = !run_wall_s and run_cpu_s = !run_cpu_s and run_words = !run_words in
  let heap1 = (Gc.quick_stat ()).Gc.heap_words in
  (* The cluster and its event log are at their largest here. *)
  if sample_live then Spans.sample_live ();
  let (event_rows, rows), events_call_s =
    Spans.timed spans ~cat:"harness" ~name:(name ^ ".events") (fun () -> Sut.events c)
  in
  let (virt_partial, phases), reduce_s =
    Spans.timed spans ~cat:"harness" ~name:(name ^ ".reduce") (fun () ->
        let cert = certify rows in
        let lat = ref [] and uncertified = ref 0 in
        let first_after_crash = ref infinity in
        Array.iter
          (fun a ->
            match Hashtbl.find_opt cert a.key with
            | Some t ->
              lat := (t -. a.at_ms) :: !lat;
              (match shape.crash_coordinator_ms with
              | Some crash when a.at_ms >= crash ->
                first_after_crash := Float.min !first_after_crash t
              | _ -> ())
            | None -> incr uncertified)
          arrivals;
        let outage_ms =
          match shape.crash_coordinator_ms with
          | Some crash when Float.is_finite !first_after_crash -> !first_after_crash -. crash
          | _ -> 0.0
        in
        let order =
          match shape.profile with
          | Sut.Steady -> order_breakdown rows arrivals cert
          | Sut.Failover -> (0.0, 0.0, 0.0, 0.0)
        in
        let v =
          {
            lat_ms = Array.of_list (List.rev !lat);
            uncertified = !uncertified;
            outage_ms;
            events_fired = Sut.events_fired c;
            event_rows;
            sends = Sut.sends c;
            crypto = Sut.crypto c;
            storage = Sut.storage c;
            recovery = Sut.recovery c;
            order;
            verdicts = [];
          }
        in
        (v, if traced && shape.profile = Sut.Steady then Sut.phases c else []))
  in
  let injected = Array.to_list (Array.map (fun a -> a.key) arrivals) in
  let verdicts, invariants_s =
    Spans.timed spans ~cat:"harness" ~name:(name ^ ".invariants") (fun () ->
        match shape.profile with
        | Sut.Failover -> Sut.failover_battery c ~injected ~down:[ 0 ]
        | Sut.Steady -> Sut.steady_battery c ~injected)
  in
  {
    protocol;
    virt = { virt_partial with verdicts };
    run_wall_s;
    run_cpu_s;
    run_speed = (if traced then 1.0 else Spans.speed gauge);
    run_words;
    events_call_s;
    reduce_s;
    invariants_s;
    delivered_msgs = Sut.messages_delivered c;
    pending_max = !pending_max;
    heap_growth_kw_per_vs =
      float_of_int (heap1 - heap0) /. 1000.0 /. (shape.end_ms /. 1000.0);
    phases;
  }

(* ------------------------------------------------------------- replay *)

(* Wire payloads captured during a traced rep (a bounded sample per tag),
   replayed afterwards through the codec, crypto, storage and service
   layers' public functions. *)
module Sample = struct
  let per_tag = 32
  let every = 8

  type t = {
    mutable seen : int;
    by_tag : (string, Sut.envelope list) Hashtbl.t;
    mutable payloads : string list;
  }

  let create () = { seen = 0; by_tag = Hashtbl.create 16; payloads = [] }

  let observe t payload =
    t.seen <- t.seen + 1;
    if t.seen mod every = 0 then begin
      let env = Sut.decode payload in
      let tag = Sut.tag env in
      let l = Option.value (Hashtbl.find_opt t.by_tag tag) ~default:[] in
      if List.length l < per_tag then begin
        Hashtbl.replace t.by_tag tag (env :: l);
        t.payloads <- payload :: t.payloads
      end
    end

  let envelopes t =
    Hashtbl.fold (fun tag envs acc -> List.map (fun e -> (tag, e)) envs @ acc) t.by_tag []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
end

(* Mean wall ns and minor words per call of [f] over every item, each
   called [repeat] times. *)
let per_call ~repeat items f =
  let n = List.length items * repeat in
  if n = 0 then (0.0, 0.0)
  else begin
    let w0 = Gc.minor_words () and t0 = Spans.now () in
    for _ = 1 to repeat do
      List.iter f items
    done;
    let t1 = Spans.now () and w1 = Gc.minor_words () in
    ((t1 -. t0) *. 1e9 /. float_of_int n, (w1 -. w0) /. float_of_int n)
  end

type replay = {
  decode_ns : float;
  encode_ns : float;
  words_per_decode : float;
  words_per_encode : float;
  sign_ns : float;
  verify_ns : float;
  append_sync_us : float;
  apply_ns : float;
}

let replay ~(spans : Spans.t) ~shape ~arrivals sample =
  let payloads = sample.Sample.payloads and envs = Sample.envelopes sample in
  let timed name f = fst (Spans.timed spans ~cat:"replay" ~name f) in
  let decode_ns, words_per_decode =
    timed "codec.decode" (fun () -> per_call ~repeat:50 payloads (fun p -> ignore (Sut.decode p)))
  in
  let encode_ns, words_per_encode =
    timed "codec.encode" (fun () -> per_call ~repeat:50 envs (fun e -> ignore (Sut.encode e)))
  in
  let sign, verify = Sut.replay_signer () in
  let bodies = List.map Sut.body_bytes envs in
  let sign_ns, _ =
    timed "crypto.sign" (fun () -> per_call ~repeat:3 bodies (fun b -> ignore (sign b)))
  in
  let signed = List.map (fun b -> (b, sign b)) bodies in
  let verify_ns, _ =
    timed "crypto.verify" (fun () ->
        per_call ~repeat:3 signed (fun (b, s) ->
            if not (verify b s) then failwith "replayed signature rejected"))
  in
  let append_sync_us =
    match shape.profile with
    | Sut.Steady -> 0.0
    | Sut.Failover ->
      timed "wal.append_sync" (fun () ->
          let append, sync = Sut.fresh_wal () in
          let entries = List.filteri (fun i _ -> i < 256) payloads in
          let t0 = Spans.now () in
          List.iter
            (fun p ->
              append p;
              sync ())
            entries;
          (Spans.now () -. t0) *. 1e6 /. float_of_int (max 1 (List.length entries)))
  in
  let apply_ns =
    timed "smr.apply" (fun () ->
        let apply = Sut.kv_apply () in
        let reqs = Array.to_list (Array.map (fun a -> a.req) arrivals) in
        let t0 = Spans.now () in
        List.iter apply reqs;
        (Spans.now () -. t0) *. 1e9 /. float_of_int (max 1 (List.length reqs)))
  in
  {
    decode_ns;
    encode_ns;
    words_per_decode;
    words_per_encode;
    sign_ns;
    verify_ns;
    append_sync_us;
    apply_ns;
  }

(* ------------------------------------------------------------ metrics *)

type rep = { setup : float; runs : run list }

(* A rep's set-up time is that of building its four clusters. *)
let rep ~shape ~arrivals ~spans ~on_payload ~sample_live =
  let setup =
    Spans.setup_s
      (List.map
         (fun protocol () -> ignore (Sut.build ~profile:shape.profile ~protocol))
         Sut.protocols)
  in
  let runs =
    List.map (run_protocol ~shape ~arrivals ~spans ~on_payload ~sample_live) Sut.protocols
  in
  { setup; runs }

let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l
let certified runs = sumi (fun r -> Array.length r.virt.lat_ms) runs
let per_req runs x = x /. float_of_int (max 1 (certified runs))

let pooled runs = Array.to_list (Array.concat (List.map (fun r -> r.virt.lat_ms) runs))

(* The host-clock numbers of one rep. *)
let host { setup; runs } =
  [
    ("setup_s", setup);
    ("cpu_us_per_op", per_req runs (sumf (fun r -> r.run_cpu_s *. r.run_speed) runs) *. 1e6);
    ("alloc_words_per_op", per_req runs (sumf (fun r -> r.run_words) runs));
  ]

(* Virtual latency over every certified request of every rep. *)
let latency reps =
  let lat = List.concat_map (fun r -> pooled r.runs) reps in
  [ ("lat_p50_ms", Stats.percentile lat 50.0); ("lat_p99_ms", Stats.percentile lat 99.0) ]

(* Each protocol's critical-path phases, as Metrics.phase_breakdown names them. *)
let phase_names = function
  | Sut.Sc | Sut.Scr -> [ "endorse"; "order"; "ack" ]
  | Sut.Bft -> [ "pre_prepare"; "prepare"; "commit" ]
  | Sut.Ct -> [ "order"; "ack" ]

(* Per-layer numbers from an untraced rep, the traced rep of the same
   arrivals, and the replay of the traced rep's wire sample. *)
let layers ~untraced ~traced ~replay:rp =
  let n = float_of_int (List.length untraced) in
  let req x = per_req untraced x in
  let injected = sumi (fun r -> Array.length r.virt.lat_ms + r.virt.uncertified) untraced in
  let run_wall = sumf (fun r -> r.run_wall_s) untraced in
  let msgs = sumi (fun r -> List.fold_left (fun a (_, m, _) -> a + m) 0 r.virt.sends) untraced in
  let bytes = sumi (fun r -> List.fold_left (fun a (_, _, b) -> a + b) 0 r.virt.sends) untraced in
  let events = sumi (fun r -> r.virt.events_fired) untraced in
  let delivered = sumi (fun r -> r.delivered_msgs) untraced in
  let st f = float_of_int (sumi (fun r -> f r.virt.storage) untraced) in
  let rc f = float_of_int (sumi (fun r -> f r.virt.recovery) untraced) in
  let cr f = float_of_int (sumi (fun r -> f r.virt.crypto) untraced) in
  let per_protocol =
    List.concat_map
      (fun r ->
        let p = "core." ^ Sut.protocol_name r.protocol ^ "." in
        let o = "order." ^ Sut.protocol_name r.protocol ^ "." in
        let lat = Array.to_list r.virt.lat_ms in
        let wait, order, reply, per_batch = r.virt.order in
        let total = Array.length r.virt.lat_ms + r.virt.uncertified in
        [
          (p ^ "run_s", r.run_wall_s);
          (p ^ "words_per_req", r.run_words /. float_of_int (max 1 (Array.length r.virt.lat_ms)));
          (p ^ "vlat_p50_ms", if lat = [] then 0.0 else Stats.percentile lat 50.0);
          (p ^ "vlat_p99_ms", if lat = [] then 0.0 else Stats.percentile lat 99.0);
          (p ^ "outage_ms", r.virt.outage_ms);
          (p ^ "failed_frac", float_of_int r.virt.uncertified /. float_of_int (max 1 total));
          (o ^ "batch_wait_ms_p50", wait);
          (o ^ "order_ms_p50", order);
          (o ^ "reply_ms_p50", reply);
          (o ^ "reqs_per_batch", per_batch);
        ])
      untraced
  in
  let phases =
    List.concat_map
      (fun r ->
        List.map
          (fun ph ->
            ( Printf.sprintf "phase.%s.%s_ms" (Sut.protocol_name r.protocol) ph,
              Option.value (List.assoc_opt ph r.phases) ~default:0.0 ))
          (phase_names r.protocol))
      traced
  in
  [
    ("engine.events_per_req", req (float_of_int events));
    ("engine.ns_per_event", run_wall *. 1e9 /. float_of_int (max 1 events));
    ("engine.pending_max", float_of_int (List.fold_left (fun a r -> max a r.pending_max) 0 traced));
    ("net.msgs_per_req", req (float_of_int msgs));
    ("net.bytes_per_req", req (float_of_int bytes));
    ("codec.decode_ns_per_msg", rp.decode_ns);
    ("codec.encode_ns_per_msg", rp.encode_ns);
    ("codec.words_per_decode", rp.words_per_decode);
    ("codec.words_per_encode", rp.words_per_encode);
    ( "codec.share_est",
      ((rp.encode_ns *. float_of_int msgs) +. (rp.decode_ns *. float_of_int delivered))
      /. (run_wall *. 1e9) );
    ("crypto.signs_per_req", req (cr (fun c -> c.Sut.signs)));
    ("crypto.verifies_per_req", req (cr (fun c -> c.Sut.verifies)));
    ("crypto.digest_bytes_per_req", req (cr (fun c -> c.Sut.digest_bytes)));
    ("crypto.sign_ns", rp.sign_ns);
    ("crypto.verify_ns", rp.verify_ns);
    ("wal.appends_per_req", req (st (fun s -> s.Sut.appends)));
    ("wal.syncs_per_req", req (st (fun s -> s.Sut.syncs)));
    ("wal.checkpoint_writes", st (fun s -> s.Sut.checkpoint_writes));
    ("wal.replayed_entries", st (fun s -> s.Sut.replayed_entries));
    ("wal.append_sync_us", rp.append_sync_us);
    ("recovery.local_replays", rc (fun r -> r.Sut.local_replays));
    ("recovery.transfers_installed", rc (fun r -> r.Sut.transfers_installed));
    ("checkpoint.stable", rc (fun r -> r.Sut.stable));
    ("checkpoint.truncations", rc (fun r -> r.Sut.truncations));
    ( "recovery.max_log",
      float_of_int (List.fold_left (fun a r -> max a r.virt.recovery.Sut.max_log) 0 untraced) );
    ("harness.events_per_req", req (float_of_int (sumi (fun r -> r.virt.event_rows) untraced)));
    ("harness.events_call_ms", sumf (fun r -> r.events_call_s) untraced *. 1000.0 /. n);
    ("harness.reduce_ms", sumf (fun r -> r.reduce_s) untraced *. 1000.0 /. n);
    ("harness.invariants_ms", sumf (fun r -> r.invariants_s) untraced *. 1000.0 /. n);
    ("heap.growth_kw_per_vs", sumf (fun r -> r.heap_growth_kw_per_vs) traced /. n);
    ("smr.apply_ns", rp.apply_ns);
    ("sim_req_per_s", float_of_int (certified untraced) /. run_wall);
    ("outage_ms", sumf (fun r -> r.virt.outage_ms) untraced /. n);
    ("failed_frac", float_of_int (injected - certified untraced) /. float_of_int (max 1 injected));
    ("trace_overhead", sumf (fun r -> r.run_wall_s) traced /. run_wall);
  ]
  @ per_protocol @ phases

let virts runs = List.map (fun r -> r.virt) runs

let verdict_failures runs =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun (v : Sut.verdict) ->
          if v.Sut.pass then None
          else
            Some
              (Printf.sprintf "%s: %s: %s" (Sut.protocol_name r.protocol) v.Sut.name
                 v.Sut.detail))
        r.virt.verdicts
      @
      if r.virt.uncertified > 0 then
        [
          Printf.sprintf "%s: %d requests never certified" (Sut.protocol_name r.protocol)
            r.virt.uncertified;
        ]
      else [])
    runs
