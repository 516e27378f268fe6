(** The explorer: exhaustive depth-first search over a model's schedules,
    with sleep-set pruning, a fingerprint visited set and iterative
    deepening.

    The search is {e stateless}: a world cannot be snapshotted, so a
    node's world is handed to its first child and stepped in place, and
    every other child is materialised by replaying its schedule prefix on
    a fresh world of the model's shared {!World.base}.  What comes back is
    therefore always replayable — a violation is reported as the exact
    schedule that reaches it.  Replays are cheap where they repeat work:
    the base memoises the signatures its keyring issued, and the ample
    validation's verdict, a function of the schedule, is kept across
    deepening rounds, so a revisited ample state runs no diamond probes.

    Soundness notes (also DESIGN.md §12): sleep sets prune interleavings
    that provably commute into already-explored subtrees; the visited set
    prunes a state only when it was previously expanded at the same or a
    shallower depth, so depth-bounded re-exploration is never cut short by
    a deeper earlier visit.  The combination of sleep sets with state
    caching can in general miss transitions (a cached state's stored
    exploration assumed a different sleep set); the checker accepts this
    for its bug-finding role, and [~use_sleep:false] gives the
    slower, assumption-free search.

    The ample reduction ([~use_ample], on by default) collapses a state to
    a single successor when one vote-like delivery commutes with every
    other enabled move ({!World.ample_candidate}), after validating the
    claim empirically: every skipped move must stay enabled in the
    candidate's child, and each pair not independent by target must close
    a one-step diamond at fingerprint granularity.  Without it, the
    all-to-all vote rounds of the n = 4 models are inexhaustible. *)

type stats = {
  states : int;  (** States expanded (including re-expansions). *)
  transitions : int;  (** Actions explored. *)
  pruned_visited : int;  (** States cut by the fingerprint visited set. *)
  pruned_sleep : int;  (** Actions cut by sleep sets. *)
  pruned_ample : int;  (** Actions skipped at single-successor states. *)
  cap_hits : int;  (** States whose successors were cut by the depth cap. *)
  max_depth : int;
  replays : int;
      (** Fresh worlds built by replaying a prefix (the stateless-search
          cost): later siblings and diamond probes.  A world handed down
          to a first child is not one, and neither is a probe whose
          verdict an earlier deepening round already settled. *)
}

type violation = {
  schedule : Schedule.t;  (** Shrunk: no single removable action remains. *)
  result : Sof_harness.Invariants.result;
  trace : string list;  (** One human-readable line per schedule step. *)
}

type outcome =
  | Exhausted
      (** Every reachable schedule explored within the depth limit and no
          state had successors cut by it: the model is fully checked. *)
  | Violation of violation
  | Depth_capped
      (** No violation found, but some states still had unexplored
          successors at the final depth limit. *)

type report = {
  spec : Model.spec;
  outcome : outcome;
  stats : stats;  (** Accumulated across deepening iterations. *)
  depth_limit : int;  (** The last limit searched. *)
}

val run :
  ?use_sleep:bool -> ?use_ample:bool -> ?start_depth:int -> Model.spec -> depth:int -> report
(** Iterative deepening from [start_depth] (default 6) in steps of 2 up to
    [depth]: stop at the first iteration that exhausts or violates, so a
    reported counterexample is within one step of the shortest depth at
    which any violation exists — then greedily shrunk action-by-action. *)

val replay : Model.spec -> Schedule.t -> (World.t, string) result
(** Rebuild the world and apply the schedule; the error names the first
    infeasible step. *)

val replay_violation : Model.spec -> Schedule.t -> Sof_harness.Invariants.result option
(** [None] when the schedule is infeasible or its final state is clean. *)

val trace_of : Model.spec -> Schedule.t -> string list
