(* The checker workload: Explore.run over the CI check-smoke models and
   one deeper two-batch SC model.  Each model's verdict is checked against
   its expectation. *)

type model_run = {
  name : string;
  met : bool;
  states : int;
  replays : int;
  wall_s : float;  (** Explore.run, call to verdict *)
  cpu_s : float;
  speed : float;  (** host speed, probed around the call *)
  words : float;
}

let run_model ~spans ~sample_live m =
  let g = Spans.gauge () in
  Spans.probe g 2;
  let probed () = Stats.sum g.Spans.took in
  let cpu0 = Spans.cpu () and p0 = probed () and w0 = Gc.minor_words () in
  let explore () = Spans.timed spans ~cat:"check" ~name:m.Sut.m_name (fun () -> Sut.explore m) in
  (* The explorer's visited set is gone once it returns, so its peak is
     sampled at the end of each major cycle inside the call. *)
  let (e, wall_s), probes_s =
    Spans.probe_during g (fun () -> if sample_live then Spans.watch_live explore else explore ())
  in
  let words = Gc.minor_words () -. w0 in
  let cpu_s = Spans.cpu () -. cpu0 -. (probed () -. p0) and wall_s = wall_s -. probes_s in
  Spans.probe g 2;
  {
    name = m.Sut.m_name;
    met = e.Sut.met;
    states = e.Sut.states;
    replays = e.Sut.replays;
    wall_s;
    cpu_s;
    speed = Spans.speed g;
    words;
  }

type rep = { setup : float; runs : model_run list }

(* A rep's set-up time is that of building each model's first world. *)
let rep ~spans ~sample_live models =
  let setup = Spans.setup_s (List.map (fun m () -> Sut.world_build m) models) in
  { setup; runs = List.map (run_model ~spans ~sample_live) models }

(* The deterministic part of a rep: every later rep must repeat it. *)
let virt rep = List.map (fun r -> (r.name, r.met, r.states, r.replays)) rep.runs

let sumf f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let states runs = float_of_int (List.fold_left (fun a r -> a + r.states) 0 runs)

let e2e { setup; runs } =
  [
    ("setup_s", setup);
    ("cpu_us_per_op", sumf (fun r -> r.cpu_s *. r.speed) runs /. states runs *. 1e6);
    ("alloc_words_per_op", sumf (fun r -> r.words) runs /. states runs);
  ]

(* Verdict latency: each model's call-to-verdict time scaled by the host
   speed probed around it, its median over reps, then the percentile
   across models. *)
let latencies reps =
  let names = List.map (fun r -> r.name) (List.hd reps).runs in
  let per_model =
    List.map
      (fun name ->
        Stats.median
          (List.concat_map
             (fun rep ->
               List.filter_map
                 (fun r -> if r.name = name then Some (r.wall_s *. 1000.0 *. r.speed) else None)
                 rep.runs)
             reps))
      names
  in
  [
    ("lat_p50_ms", Stats.percentile per_model 50.0);
    ("lat_p99_ms", Stats.percentile per_model 99.0);
  ]

let problems rep =
  List.filter_map
    (fun r -> if r.met then None else Some (r.name ^ ": verdict not the expected one"))
    rep.runs

let layers ~all_models ~untraced:{ runs = untraced; _ } ~traced:{ runs = traced; _ }
    ~walk:(calls, walk_s) =
  let wall = sumf (fun r -> r.wall_s) untraced in
  List.concat_map
    (fun m ->
      let name = m.Sut.m_name in
      match List.find_opt (fun r -> r.name = name) untraced with
      | Some r ->
        [ ("check." ^ name ^ ".s", r.wall_s); ("check." ^ name ^ ".states", float_of_int r.states) ]
      | None -> [ ("check." ^ name ^ ".s", 0.0); ("check." ^ name ^ ".states", 0.0) ])
    all_models
  @ [
      ("check.states_per_s", states untraced /. wall);
      ( "check.replays_per_state",
        float_of_int (List.fold_left (fun a r -> a + r.replays) 0 untraced) /. states untraced );
      ("check_s", wall);
      ("harness.invariants_ms", walk_s *. 1000.0 /. float_of_int calls);
      ( "failed_frac",
        float_of_int (List.length (List.filter (fun r -> not r.met) untraced))
        /. float_of_int (List.length untraced) );
      ("trace_overhead", sumf (fun r -> r.wall_s) traced /. wall);
    ]
