(** Per-process adaptive timing, shared by all four protocol cores.

    Under [Config.Static] every timer keeps its configured value and none
    of this state is touched, so static seeded runs keep their exact
    stream layout.  Under [Config.Adaptive] a process measures round trips
    to its peers with lazily created Jacobson estimators fed by
    [Probe]/[Probe_reply] traffic, and backs retry timers off
    exponentially up to a hard cap of 64 x the configured base estimate.

    The base estimate is the protocol's own suspicion constant: SC/SCR's
    pair delay estimate, BFT's view-change timeout, CT's suspicion
    timeout. *)

type t

val create : mode:Config.timing -> initial:Sof_sim.Simtime.t -> peers:int -> t
(** [initial] seeds every estimator and sets the cap; [peers] is the
    process count (estimators are indexed by process id). *)

val adaptive : t -> bool

val base : t -> Sof_sim.Simtime.t
(** The configured base estimate ([initial]). *)

val estimate : t -> int -> Sof_sim.Simtime.t
(** The delay estimate for a peer: {!base} under static timing; under
    adaptive timing the Jacobson deadline of the measured round trip to
    [peer] ({!base} until its first probe reply).  The one estimate every
    core's suspicion and pair watches start from. *)

val timer_cap : t -> Sof_sim.Simtime.t
(** 64 x the configured estimate: no backed-off timer waits longer, which
    keeps degraded-mode detection latency finite. *)

val backed_off : t -> Sof_sim.Simtime.t -> level:int -> Sof_sim.Simtime.t
(** [base] doubled [level] times, capped at {!timer_cap}. *)

val can_back_off : t -> Sof_sim.Simtime.t -> level:int -> bool
(** Whether a watch whose budget is [backed_off base ~level] may still
    double and re-wait: only in adaptive mode, and only below the cap. *)

val retry_delay : t -> Sof_sim.Simtime.t -> level:int -> Sof_sim.Simtime.t
(** A retry timer's delay: [backed_off base ~level] in adaptive mode,
    [base] unchanged in static mode. *)

val suspected : t -> unit
(** The leader was suspected once more in a row (BFT: a view change
    started; CT: the coordinator rotated). *)

val trusted : t -> unit
(** The leader made progress: the consecutive-suspicion count drops to 0. *)

val suspicion_delay : t -> leader:int -> Sof_sim.Simtime.t
(** The stall budget a process grants the current coordinator or primary
    [leader] before suspecting it: {!retry_delay} of [estimate t leader]
    at the consecutive-suspicion count, so {!base} under static timing and
    under adaptive timing the measured deadline doubled per consecutive
    suspicion, capped. *)

val next_probe : t -> int
(** A fresh probe nonce. *)

val note_probe_reply :
  t -> now:Sof_sim.Simtime.t -> src:int -> nonce:int -> at:int -> unit
(** Feed a [Probe_reply] echo into [src]'s estimator.  Ignored in static
    mode and for a nonce at or below the highest one already accepted from
    [src] (a stale or duplicated echo). *)
