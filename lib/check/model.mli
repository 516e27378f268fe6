(** Model configurations for the exhaustive-schedule checker.

    A model is a tiny instance of one protocol — small enough that the set
    of reachable schedules can actually be exhausted: f = 1, one or two
    batches, and a bounded fault budget drawn from the
    {!Sof_protocol.Fault.t} taxonomy (crashes, one equivocation, one
    spurious fail-signal). *)

type protocol = Sc | Scr | Bft | Ct

val all_protocols : protocol list
val protocol_name : protocol -> string
val protocol_of_string : string -> protocol option

type spec = {
  protocol : protocol;
  f : int;  (** Fault-tolerance parameter; keep at 1 for exhaustion. *)
  batches : int;  (** Client requests injected, one per batch. *)
  crash_budget : int;  (** How many [Crash] actions a schedule may contain. *)
  equivocate : int option;
      (** Process 0 equivocates when minting this sequence number. *)
  spurious_fs : Sof_sim.Simtime.t option;
      (** Process 0 raises a baseless fail-signal at this instant (SC/SCR). *)
  digest_blind : bool;
      (** Enable the BFT test-only mutant
          ({!Sof_protocol.Config.t.unsafe_digest_blind_votes}). *)
  explore_watchdogs : bool;
      (** Schedule [Watchdog]-kind timers too.  Off by default: firing a
          watchdog while the watched message is still pending simulates a
          timing failure, which is outside the paper's synchrony assumptions
          for SC/SCR and unbounded (views can rise forever) for BFT/CT —
          with it on, expect [Depth_capped] rather than [Exhausted]. *)
  checkpoint_interval : int;
  seed : int64;
}

val default : protocol -> spec
(** f = 1, one batch, no faults, watchdogs off, seed 1. *)

val faulty_process : spec -> (int * Sof_protocol.Fault.t) option
(** The Byzantine process and its fault, when one is configured; always
    process 0 (the initial coordinator/primary of every protocol). *)

val byzantine : spec -> int list

val validate : spec -> (unit, string) result

val config : spec -> Sof_protocol.Config.t
(** The protocol configuration the model's processes run: batches of
    exactly one request, so [batches] requests become [batches] orders.
    @raise Sof_protocol.Config.Invalid_config on a spec {!validate}
    rejects. *)

val describe : spec -> string
(** One-line human description, e.g. ["bft n=4 f=1 batches=1 crashes<=0"]. *)
