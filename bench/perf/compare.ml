(* Result documents: recording several runs of every workload into one
   summary (the checked-in baseline is one), and comparing two summaries
   metric by metric against the bounds BENCHMARK.json fixes. *)

module Json = Sut.Json

type metric_spec = { name : string; unit_ : string; lower_better : bool; bound : float }

type spec = {
  workloads : string list;
  end_to_end : metric_spec list;
  per_layer : (string * string) list;  (** name, unit *)
  run_seconds : int;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fail fmt = Printf.ksprintf failwith fmt

let field j k conv =
  match Option.bind (Json.member k j) conv with
  | Some v -> v
  | None -> fail "missing or malformed field %S" k

let load_spec path =
  let j = Json.of_string (read_file path) in
  let metric m =
    {
      name = field m "name" Json.to_str;
      unit_ = field m "unit" Json.to_str;
      lower_better = field m "better" Json.to_str = "lower";
      bound = Option.value (Option.bind (Json.member "bound" m) Json.to_float) ~default:0.0;
    }
  in
  {
    workloads = List.map (fun w -> field w "name" Json.to_str) (field j "workloads" Json.to_list);
    end_to_end = List.map metric (field j "end_to_end" Json.to_list);
    per_layer =
      List.map
        (fun m -> (field m "name" Json.to_str, field m "unit" Json.to_str))
        (field j "per_layer" Json.to_list);
    run_seconds = field j "run_seconds" Json.to_int;
  }

(* --------------------------------------------------------------- record *)

let capture prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  (out, status)

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let host_info () =
  let cpu_model =
    match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
    | text -> (
      match
        List.find_opt
          (fun l -> String.length l > 10 && String.sub l 0 10 = "model name")
          (String.split_on_char '\n' text)
      with
      | Some l -> String.trim (List.nth (String.split_on_char ':' l) 1)
      | None -> "unknown")
    | exception Sys_error _ -> "unknown"
  in
  let commit =
    match capture "git" [ "rev-parse"; "--short"; "HEAD" ] with
    | out, Unix.WEXITED 0 -> String.trim out
    | _ | (exception Unix.Unix_error _) -> "unknown"
  in
  Json.Obj
    [
      ("nproc", Json.num_of_int (Domain.recommended_domain_count ()));
      ("cpu_model", Json.Str cpu_model);
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str commit);
    ]

let summary values =
  let q1, q3 = Stats.quartiles values in
  [
    ("median", Json.Num (Stats.median values));
    ("q1", Json.Num q1);
    ("q3", Json.Num q3);
    ("values", Json.List (List.map (fun v -> Json.Num v) values));
  ]

(* Runs every workload [runs] times for the spec's run length, each run in
   its own process, and writes the medians and quartiles of every
   end-to-end metric. *)
let record ~spec ~out ~runs ~seed =
  let seconds = spec.run_seconds in
  let workloads =
    List.map
      (fun w ->
        let results =
          List.init runs (fun i ->
              Printf.printf "%s run %d/%d\n%!" w (i + 1) runs;
              let stdout, status =
                capture Sys.executable_name
                  [
                    "--workload"; w; "--seed"; string_of_int seed;
                    "--seconds"; string_of_int seconds; "--trace"; "0";
                  ]
              in
              if status <> Unix.WEXITED 0 then fail "%s run %d failed:\n%s" w (i + 1) stdout;
              Json.of_string (last_line stdout))
        in
        let metrics =
          List.map
            (fun m ->
              let values =
                List.map
                  (fun r ->
                    let metric = field (field r "metrics" Option.some) m.name Option.some in
                    field metric "value" Json.to_float)
                  results
              in
              (m.name, Json.Obj (("unit", Json.Str m.unit_) :: summary values)))
            spec.end_to_end
        in
        (w, Json.Obj [ ("metrics", Json.Obj metrics) ]))
      spec.workloads
  in
  let doc =
    Json.Obj
      [
        ("host", host_info ());
        ("seed", Json.num_of_int seed);
        ("runs", Json.num_of_int runs);
        ("seconds", Json.num_of_int seconds);
        ("workloads", Json.Obj workloads);
      ]
  in
  Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc (Json.to_string doc ^ "\n"))

(* -------------------------------------------------------------- compare *)

type mark = Fine | Unresolved | Regressed

let mark_name = function Fine -> "ok" | Unresolved -> "unresolved" | Regressed -> "REGRESSED"
let severity = function Fine -> 0 | Unresolved -> 1 | Regressed -> 2

(* Exit codes: 0 when every pair is ok, 3 when the worst is unresolved,
   4 when any pair regressed. *)
let exit_code = function Fine -> 0 | Unresolved -> 3 | Regressed -> 4

type side = { median : float; q1 : float; q3 : float; values : float list }

let side doc w m =
  match Json.path [ "workloads"; w; "metrics"; m ] doc with
  | None -> None
  | Some j ->
    Some
      {
        median = field j "median" Json.to_float;
        q1 = field j "q1" Json.to_float;
        q3 = field j "q3" Json.to_float;
        values = List.filter_map Json.to_float (field j "values" Json.to_list);
      }

let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median

(* Regressed: the new median is worse than the base median by more than the
   bound.  Otherwise unresolved when either side's quartile spread is wider
   than the bound, unless every new run beats every base run. *)
let judge m base next =
  let worse =
    if base.median = 0.0 then 0.0
    else
      let d = (next.median -. base.median) /. Float.abs base.median in
      if m.lower_better then d else -.d
  in
  let better a b = if m.lower_better then a < b else a > b in
  let all_better =
    List.for_all (fun n -> List.for_all (fun b -> better n b) base.values) next.values
  in
  if worse > m.bound then Regressed
  else if Float.max (spread base) (spread next) > m.bound && not all_better then Unresolved
  else Fine

let compare ~spec ~old_path ~new_path =
  let base = Json.of_string (read_file old_path) and next = Json.of_string (read_file new_path) in
  Printf.printf "%-9s %-20s %14s %14s %9s %7s  %s\n" "workload" "metric" "base" "new" "delta"
    "bound" "mark";
  let worst = ref Fine in
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let mark =
            match (side base w m.name, side next w m.name) with
            | Some b, Some n ->
              let mark = judge m b n in
              let delta =
                if b.median = 0.0 then 0.0 else (n.median -. b.median) /. Float.abs b.median
              in
              Printf.printf "%-9s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n" w m.name b.median
                n.median (delta *. 100.0) (m.bound *. 100.0) (mark_name mark);
              mark
            | _ ->
              Printf.printf "%-9s %-20s missing from one side  unresolved\n" w m.name;
              Unresolved
          in
          if severity mark > severity !worst then worst := mark)
        spec.end_to_end)
    spec.workloads;
  Printf.printf "worst: %s\n" (mark_name !worst);
  exit_code !worst
