(** Deterministic discrete-event engine.

    Events are thunks scheduled at virtual instants.  Two events at the same
    instant fire in scheduling order, so a run is a pure function of the seed
    and the scheduled workload — the property every protocol test in this
    repository leans on. *)

type t

type handle
(** A scheduled event, cancellable until it fires. *)

val create : ?seed:int64 -> unit -> t
(** [seed] (default 1) seeds the engine's root RNG, from which node RNGs are
    split. *)

val now : t -> Simtime.t

val rng : t -> Sof_util.Rng.t
(** The root RNG.  Prefer {!fork_rng} for per-component streams. *)

val fork_rng : t -> Sof_util.Rng.t
(** A fresh independent RNG stream. *)

val schedule : t -> delay:Simtime.t -> (unit -> unit) -> handle
(** Run the thunk [delay] after the current instant. *)

val schedule_at : t -> at:Simtime.t -> (unit -> unit) -> handle
(** @raise Invalid_argument when [at] is in the past. *)

val cancel : handle -> unit
(** Idempotent; no effect once the event has fired.  A cancelled event
    stays queued until it reaches the front or until cancelled events are
    over half of a queue of more than 64, when they are all dropped. *)

val is_cancelled : handle -> bool
(** [true] once {!cancel} has caught the event before it fired. *)

val pending : t -> int
(** Number of scheduled events neither cancelled nor fired.  O(1). *)

val step : t -> bool
(** Fire the next event; [false] when none remain. *)

val run : ?until:Simtime.t -> ?max_events:int -> t -> unit
(** Fire events until the queue drains, virtual time would pass [until], or
    [max_events] have fired.  Events scheduled exactly at [until] still
    fire. *)

val events_fired : t -> int
(** Total events fired since creation. *)
