module Heap = Sof_util.Heap

type state = Pending | Cancelled | Fired

type handle = {
  at : Simtime.t;
  thunk : unit -> unit;
  mutable state : state;
  engine : t;
}

and t = {
  queue : handle Heap.t;  (* keyed on [at] in ns; ties pop in scheduling order *)
  mutable clock : Simtime.t;
  root_rng : Sof_util.Rng.t;
  mutable cancelled : int;  (* cancelled handles still in [queue] *)
  mutable fired : int;
}

(* [cancel] drops the cancelled entries from the queue once there are more
   than this many and they fill over half of it. *)
let compaction_floor = 64

let create ?(seed = 1L) () =
  {
    queue = Heap.create ();
    clock = Simtime.zero;
    root_rng = Sof_util.Rng.create seed;
    cancelled = 0;
    fired = 0;
  }

let now t = t.clock

let rng t = t.root_rng

let fork_rng t = Sof_util.Rng.split t.root_rng

let schedule_at t ~at thunk =
  if Simtime.compare at t.clock < 0 then
    invalid_arg "Engine.schedule_at: instant in the past";
  let h = { at; thunk; state = Pending; engine = t } in
  Heap.push t.queue ~key:(Simtime.to_ns at) h;
  h

let schedule t ~delay thunk = schedule_at t ~at:(Simtime.add t.clock delay) thunk

let is_pending h = match h.state with Pending -> true | Cancelled | Fired -> false

(* Dropping cancelled entries cannot reorder the live ones: the queue orders
   every entry strictly by (instant, scheduling order). *)
let cancel h =
  if is_pending h then begin
    h.state <- Cancelled;
    let t = h.engine in
    t.cancelled <- t.cancelled + 1;
    if t.cancelled > compaction_floor && 2 * t.cancelled > Heap.length t.queue then begin
      Heap.retain t.queue is_pending;
      t.cancelled <- 0
    end
  end

let is_cancelled h = match h.state with Cancelled -> true | Pending | Fired -> false

let pending t = Heap.length t.queue - t.cancelled

(* Pop cancelled entries off the front; [false] when nothing live is left. *)
let rec live_head t =
  if Heap.is_empty t.queue then false
  else if is_pending (Heap.top t.queue) then true
  else begin
    ignore (Heap.pop_exn t.queue);
    t.cancelled <- t.cancelled - 1;
    live_head t
  end

let step t =
  if not (live_head t) then false
  else begin
    let h = Heap.pop_exn t.queue in
    h.state <- Fired;
    t.clock <- h.at;
    t.fired <- t.fired + 1;
    h.thunk ();
    true
  end

let run ?until ?max_events t =
  let fired_at_start = t.fired in
  let budget_ok () =
    match max_events with
    | None -> true
    | Some m -> t.fired - fired_at_start < m
  in
  (* Peek past cancelled events without firing anything late. *)
  let horizon_ok () =
    match until with
    | None -> true
    | Some u -> live_head t && Simtime.compare (Heap.top t.queue).at u <= 0
  in
  while budget_ok () && horizon_ok () && step t do
    ()
  done;
  (* When stopped by the horizon, advance the clock to it so that subsequent
     scheduling is relative to the requested instant. *)
  match until with
  | Some u when Simtime.compare t.clock u < 0 -> t.clock <- u
  | Some _ | None -> ()

let events_fired t = t.fired
