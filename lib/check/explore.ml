module Invariants = Sof_harness.Invariants

type stats = {
  states : int;
  transitions : int;
  pruned_visited : int;
  pruned_sleep : int;
  pruned_ample : int;
  cap_hits : int;
  max_depth : int;
  replays : int;
}

type violation = {
  schedule : Schedule.t;
  result : Invariants.result;
  trace : string list;
}

type outcome = Exhausted | Violation of violation | Depth_capped

type report = {
  spec : Model.spec;
  outcome : outcome;
  stats : stats;
  depth_limit : int;
}

type counters = {
  mutable c_states : int;
  mutable c_transitions : int;
  mutable c_pruned_visited : int;
  mutable c_pruned_sleep : int;
  mutable c_pruned_ample : int;
  mutable c_cap_hits : int;
  mutable c_max_depth : int;
  mutable c_replays : int;
}

let fresh_counters () =
  {
    c_states = 0;
    c_transitions = 0;
    c_pruned_visited = 0;
    c_pruned_sleep = 0;
    c_pruned_ample = 0;
    c_cap_hits = 0;
    c_max_depth = 0;
    c_replays = 0;
  }

let stats_of c =
  {
    states = c.c_states;
    transitions = c.c_transitions;
    pruned_visited = c.c_pruned_visited;
    pruned_sleep = c.c_pruned_sleep;
    pruned_ample = c.c_pruned_ample;
    cap_hits = c.c_cap_hits;
    max_depth = c.c_max_depth;
    replays = c.c_replays;
  }

(* The checker's worlds of one model all share a {!World.base}: [run]
   derives it once, and every replay below starts from it. *)
let replay_base base sched =
  let w = World.of_base base in
  let rec go i = function
    | [] -> Ok w
    | a :: rest -> (
      match World.apply w a with
      | Ok () -> go (i + 1) rest
      | Error e -> Error (Printf.sprintf "step %d (%s): %s" i (Schedule.encode [ a ]) e))
  in
  go 0 sched

let violation_base base sched =
  match replay_base base sched with
  | Ok w -> World.violation w
  | Error _ -> None

let replay spec sched = replay_base (World.base spec) sched
let replay_violation spec sched = violation_base (World.base spec) sched

(* A move is an action plus the process it touches, captured when it was
   enumerated (targets are stable along a subtree: the id-to-destination
   binding is fixed by the prefix).  Two moves are independent — their
   applications commute exactly — when both are process-local and touch
   distinct processes.  Timer fires advance the shared clock, so they are
   conservatively dependent on everything. *)
type move = { act : Schedule.action; target : int option }

let independent a b =
  match (a.target, b.target) with
  | Some x, Some y -> not (Int.equal x y)
  | _ -> false

exception Found of Schedule.t * Invariants.result

(* Tables keyed by the low 63 bits of a 64-bit hash: a native int, where an
   [Int64] key would be a boxed one per entry. *)
module Keys = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* A schedule's key; any fixed order of its actions will do. *)
let key_of_schedule sched_rev =
  let acc = Fingerprint.create () in
  List.iter
    (fun a ->
      match (a : Schedule.action) with
      | Schedule.Deliver id ->
        Fingerprint.add_int acc 0;
        Fingerprint.add_int acc id
      | Schedule.Fire tid ->
        Fingerprint.add_int acc 1;
        Fingerprint.add_int acc tid
      | Schedule.Crash p ->
        Fingerprint.add_int acc 2;
        Fingerprint.add_int acc p)
    sched_rev;
  Int64.to_int (Fingerprint.digest acc)

(* What the ample reduction made of a node's world [w]: the node's single
   successor, which is [w] stepped in place, or a full expansion, handed
   [w] untouched when no candidate was tried and nothing when a rejected
   validation has already stepped it. *)
type expansion = Single of move * World.t * int | Full of World.t option

(* Stateless depth-first search: protocol state cannot be snapshotted, so
   a node's world is handed down to its first child and stepped in place,
   and every later child is materialised by replaying its whole schedule
   prefix from a fresh world.  Each explored state is still exactly
   reproducible from its schedule; [replays] counts the fresh worlds. *)
let search base ~verdicts ~use_sleep ~use_ample ~limit c =
  (* Sized for the smallest models and grown with the table: a search of
     the ct model sees 27 states, and every deepening iteration makes a
     fresh table. *)
  let visited : int Keys.t = Keys.create 256 in
  let capped = ref false in
  let child prefix_rev =
    c.c_replays <- c.c_replays + 1;
    let w = World.of_base base in
    let rec go = function
      | [] -> Some w
      | a :: rest -> (
        match World.apply w a with Ok () -> go rest | Error _ -> None)
    in
    go (List.rev prefix_rev)
  in
  let step w act =
    match World.apply w act with Ok () -> Some w | Error _ -> None
  in
  (* Single-successor ("ample") reduction: when a delivery's destination
     has all of its dependences in plain sight (World.ample_candidate),
     explore only that delivery.  The claim is validated empirically before
     it is trusted: the candidate must leave every skipped move enabled in
     its child, and each pair not already independent by target (timer
     fires, same-destination deliveries) must close a one-step diamond —
     both orders feasible and fingerprint-equal.  Validation failure falls
     back to full exploration.  This is as sound as the fingerprint abstraction the
     visited set already relies on, but it checks commutation one step deep
     only; DESIGN.md §12 spells out the residual gap, and --no-ample gives
     the pure sleep-set search whose independence relation is exact.

     A world is a function of its schedule, so the validation's verdict is
     one of the schedule [act :: prefix_rev]: [verdicts] keeps it across
     deepening rounds, which revisit every shallow state.  A verdict known
     to fail leaves [w] untouched for the full expansion. *)
  let ample_child prefix_rev w moves sleep =
    match World.ample_candidate w with
    | None -> Full (Some w)
    | Some act -> (
      let m = { act; target = World.action_target w act } in
      let others =
        List.filter (fun o -> not (Schedule.equal_action o.act act)) moves
      in
      if
        others = []
        || List.exists (fun s -> Schedule.equal_action s.act act) sleep
      then Full (Some w)
      else
        let key = key_of_schedule (act :: prefix_rev) in
        match Keys.find_opt verdicts key with
        | Some false -> Full (Some w)
        | known -> (
          match step w act with
          | None -> Full None
          | Some w1 ->
            let valid =
              match known with
              | Some v -> v
              | None ->
                let enabled1 = World.enabled w1 in
                let ok o =
                  List.exists (Schedule.equal_action o.act) enabled1
                  && (independent o m
                     ||
                     match
                       ( child (o.act :: act :: prefix_rev),
                         child (act :: o.act :: prefix_rev) )
                     with
                     | Some wa, Some wb ->
                       Int64.equal (World.fingerprint wa) (World.fingerprint wb)
                     | _ -> false)
                in
                let v = List.for_all ok others in
                Keys.replace verdicts key v;
                v
            in
            if valid then Single (m, w1, List.length others) else Full None))
  in
  (* [prefix_rev] is the schedule to here, newest first; [sleep] the classic
     sleep set: actions whose exploration here would only commute into a
     subtree an earlier sibling already covered.  Every move's target is
     read before [w] is handed down, since a delivered message leaves the
     pending pool, and no frame holds [w] once it has been. *)
  let rec dfs prefix_rev w depth sleep =
    c.c_states <- c.c_states + 1;
    if depth > c.c_max_depth then c.c_max_depth <- depth;
    (match World.violation w with
    | Some r -> raise (Found (List.rev prefix_rev, r))
    | None -> ());
    let fp = Int64.to_int (World.fingerprint w) in
    match Keys.find_opt visited fp with
    | Some d when d <= depth -> c.c_pruned_visited <- c.c_pruned_visited + 1
    | _ ->
      Keys.replace visited fp depth;
      let moves =
        List.map
          (fun a -> { act = a; target = World.action_target w a })
          (World.enabled w)
      in
      if moves = [] then ()
      else if depth >= limit then begin
        capped := true;
        c.c_cap_hits <- c.c_cap_hits + 1
      end
      else begin
        match
          if use_ample then ample_child prefix_rev w moves sleep
          else Full (Some w)
        with
        | Single (m, w1, skipped) ->
          c.c_pruned_ample <- c.c_pruned_ample + skipped;
          c.c_transitions <- c.c_transitions + 1;
          dfs (m.act :: prefix_rev) w1 (depth + 1) []
        | Full handed ->
        let considered =
          if use_sleep then
            List.filter
              (fun m ->
                not
                  (List.exists
                     (fun s -> Schedule.equal_action s.act m.act)
                     sleep))
              moves
          else moves
        in
        c.c_pruned_sleep <-
          c.c_pruned_sleep + (List.length moves - List.length considered);
        (* [handed] goes to the first considered move only. *)
        let rec loop handed explored = function
          | [] -> ()
          | m :: rest ->
            c.c_transitions <- c.c_transitions + 1;
            let child_sleep =
              if use_sleep then
                List.filter (fun s -> independent s m) (sleep @ explored)
              else []
            in
            let w' =
              match handed with
              | Some w -> step w m.act
              | None -> child (m.act :: prefix_rev)
            in
            (match w' with
            | Some w' -> dfs (m.act :: prefix_rev) w' (depth + 1) child_sleep
            | None -> ());
            loop None (m :: explored) rest
        in
        loop handed [] considered
      end
  in
  dfs [] (World.of_base base) 0 [];
  !capped

(* Greedy schedule shrinking: drop any single action whose removal leaves
   the schedule feasible and still violating the same invariant; iterate
   to a fixpoint.  Safety predicates are monotone in the event log, so a
   violation observed at the end of a replay is the violation. *)
let shrink base sched (result : Invariants.result) =
  let violates s =
    match violation_base base s with
    | Some r -> String.equal r.Invariants.name result.Invariants.name
    | None -> false
  in
  let rec pass s =
    let len = List.length s in
    let rec try_remove i =
      if i >= len then None
      else
        let cand = List.filteri (fun j _ -> not (Int.equal i j)) s in
        if violates cand then Some cand else try_remove (i + 1)
    in
    match try_remove 0 with Some s' -> pass s' | None -> s
  in
  if violates sched then pass sched else sched

let trace_base base sched =
  let w = World.of_base base in
  List.map
    (fun a ->
      let d = World.describe_action w a in
      match World.apply w a with
      | Ok () -> d
      | Error e -> d ^ " [infeasible: " ^ e ^ "]")
    sched

let trace_of spec sched = trace_base (World.base spec) sched

let run ?(use_sleep = true) ?(use_ample = true) ?(start_depth = 6) spec ~depth =
  let base = World.base spec in
  let c = fresh_counters () in
  (* Ample verdicts by schedule, for every deepening round. *)
  let verdicts : bool Keys.t = Keys.create 256 in
  let finish outcome depth_limit =
    { spec; outcome; stats = stats_of c; depth_limit }
  in
  let rec iterate limit =
    match search base ~verdicts ~use_sleep ~use_ample ~limit c with
    | exception Found (sched, result) ->
      let schedule = shrink base sched result in
      let result =
        match violation_base base schedule with
        | Some r -> r
        | None -> result
      in
      finish
        (Violation { schedule; result; trace = trace_base base schedule })
        limit
    | false -> finish Exhausted limit
    | true ->
      if limit >= depth then finish Depth_capped limit
      else iterate (min depth (limit + 2))
  in
  iterate (min depth (max 1 start_depth))
