(* Clocks, and the spans a traced run records around the benchmark's own
   calls into each layer.  Spans stay in memory until the run ends and are
   then written as Chrome trace-event JSON, which Perfetto and
   chrome://tracing open directly. *)

module Json = Sut.Json

let now = Unix.gettimeofday

(* Process CPU seconds, all threads. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let origin = now ()

(* Host speed.  The hosts this runs on are shared, and their speed drifts
   by 5-20% over minutes and by up to 2x for tens of seconds at a time,
   which would swamp the changes the benchmark is meant to see.  So the
   benchmark runs a probe, a fixed piece of work it owns, next to the work
   it times: between simulator slices, around and inside each checker
   model, and around each set-up.  A time measured next to probes is scaled
   by [reference_probe_s / their mean CPU time], so it reads as on the
   reference host at its usual speed.

   The probe streams writes through a 2 MB table, the size of the OCaml
   minor heap and of a core's L2 cache, and reads it back at random, as
   the program's allocation does.  In the host's slow phases a checker
   model slowed by 1.73x; a probe confined to 256 KB slowed by 1.25x, this
   one by about as much as the model.  It allocates nothing and its cells
   live outside the OCaml heap, so the program's heap and collections are
   the same with and without it. *)

(* The probe's CPU time on the reference host at its usual speed. *)
let reference_probe_s = 0.0040
let probe_cells = Bigarray.(Array1.create int c_layout (256 * 1024))

let probe_work () =
  let n = Bigarray.Array1.dim probe_cells in
  let h = ref 17 in
  for pass = 1 to 4 do
    for i = 0 to n - 1 do
      probe_cells.{i} <- i + pass
    done;
    for i = 0 to 40_000 do
      let j = (!h lxor i) land (n - 1) in
      h := ((!h * 1_000_003) + probe_cells.{j}) land 0x3FFF_FFFF
    done
  done;
  ignore (Sys.opaque_identity !h)

(* The probe times taken next to one measurement. *)
type gauge = { mutable took : float list }

let gauge () = { took = [] }

(* One timed run of the probe; returns its wall seconds. *)
let probe_once g =
  let t0 = now () and c0 = cpu () in
  probe_work ();
  g.took <- (cpu () -. c0) :: g.took;
  now () -. t0

(* [n] timed runs of the probe. *)
let probe g n =
  for _ = 1 to n do
    ignore (probe_once g)
  done

(* Runs [f], probing inside it at the end of every 8th major collection
   cycle (the checker ends 50-130 a second), so that a long call is scaled
   by the host's speed while it ran and not just at its ends.  Cycles, not
   a clock, pick the probes: the program allocates the same with and
   without them, so their own few words of allocation repeat too.  Returns
   [f]'s result and the wall seconds the probes took, which the caller
   takes off [f]'s time. *)
let probe_during g f =
  let spent = ref 0.0 and cycles = ref 0 in
  let alarm =
    Gc.create_alarm (fun () ->
        incr cycles;
        if !cycles mod 8 = 0 then spent := !spent +. probe_once g)
  in
  let r = Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f in
  (r, !spent)

(* The mean, not the median: times add, so work timed next to the probes
   ran at the host's mean speed over them. *)
let speed g = reference_probe_s *. float_of_int (List.length g.took) /. Stats.sum g.took

(* Set-up time: the wall seconds of one call of each of [builds], summed and
   scaled by the host speed probed around them.  Each call's time is the
   median of 3 timings of 4 back-to-back calls, as one call can be too
   short for the clock. *)
let setup_s builds =
  let g = gauge () in
  probe g 2;
  let per_call f =
    Stats.median
      (List.init 3 (fun _ ->
           let t0 = now () in
           for _ = 1 to 4 do
             f ()
           done;
           (now () -. t0) /. 4.0))
  in
  let s = Stats.sum (List.map per_call builds) in
  probe g 2;
  s *. speed g

(* The largest live major heap seen, sampled after a full collection at
   the points a workload chooses, or at the end of every major cycle inside
   a call whose peak the benchmark cannot reach from outside.  (Between
   collections the runtime's live count also holds garbage not yet swept.) *)
let peak_live_words = ref 0
let note_live () = peak_live_words := max !peak_live_words (Gc.quick_stat ()).Gc.live_words

let sample_live () =
  Gc.full_major ();
  note_live ()

(* Runs [f], noting the live heap at the end of every major cycle inside it. *)
let watch_live f =
  let alarm = Gc.create_alarm note_live in
  Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f

let peak_live_mb () = float_of_int (!peak_live_words * (Sys.word_size / 8)) /. 1e6

(* One trace lane per layer family, in the order the viewer lists them. *)
let lanes = [ "sim"; "harness"; "replay"; "runtime"; "check" ]

let lane cat =
  let rec find i = function
    | [] -> invalid_arg ("Spans: unknown lane " ^ cat)
    | c :: rest -> if c = cat then i else find (i + 1) rest
  in
  find 1 lanes

type t = { on : bool; mutable events : Json.t list (* newest first *) }

let create ~on = { on; events = [] }
let us t = Json.Num ((t -. origin) *. 1e6)
let num_args args = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) args)

let span t ~cat ~name ~t0 ~t1 ?(args = []) () =
  if t.on then
    t.events <-
      Json.Obj
        [
          ("name", Json.Str name);
          ("cat", Json.Str cat);
          ("ph", Json.Str "X");
          ("ts", us t0);
          ("dur", Json.Num ((t1 -. t0) *. 1e6));
          ("pid", Json.Num 1.0);
          ("tid", Json.num_of_int (lane cat));
          ("args", num_args args);
        ]
      :: t.events

let counter t ~cat ~name ~at values =
  if t.on then
    t.events <-
      Json.Obj
        [
          ("name", Json.Str name);
          ("cat", Json.Str cat);
          ("ph", Json.Str "C");
          ("ts", us at);
          ("pid", Json.Num 1.0);
          ("tid", Json.num_of_int (lane cat));
          ("args", num_args values);
        ]
      :: t.events

(* Runs [f], recording a span around it when tracing; returns the result
   and the wall seconds it took either way. *)
let timed t ~cat ~name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  span t ~cat ~name ~t0 ~t1 ();
  (r, t1 -. t0)

(* Records nothing. *)
let off = create ~on:false

let write t path =
  let names =
    List.map
      (fun cat ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Num 1.0);
            ("tid", Json.num_of_int (lane cat));
            ("args", Json.Obj [ ("name", Json.Str cat) ]);
          ])
      lanes
  in
  let doc =
    Json.Obj
      [
        ("traceEvents", Json.List (names @ List.rev t.events));
        ("displayTimeUnit", Json.Str "ms");
      ]
  in
  let rec mkdirs dir =
    if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
      mkdirs (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdirs (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Json.to_string doc))
