module Simtime = Sof_sim.Simtime
module P = Sof_protocol

type protocol = Sc | Scr | Bft | Ct

let all_protocols = [ Sc; Scr; Bft; Ct ]

let protocol_name = function
  | Sc -> "sc"
  | Scr -> "scr"
  | Bft -> "bft"
  | Ct -> "ct"

let protocol_of_string s =
  match String.lowercase_ascii s with
  | "sc" -> Some Sc
  | "scr" -> Some Scr
  | "bft" -> Some Bft
  | "ct" -> Some Ct
  | _ -> None

let cluster_kind = function
  | Sc -> Sof_harness.Cluster.Sc_protocol
  | Scr -> Sof_harness.Cluster.Scr_protocol
  | Bft -> Sof_harness.Cluster.Bft_protocol
  | Ct -> Sof_harness.Cluster.Ct_protocol

type spec = {
  protocol : protocol;
  f : int;
  batches : int;
  crash_budget : int;
  equivocate : int option;
  spurious_fs : Simtime.t option;
  digest_blind : bool;
  explore_watchdogs : bool;
  checkpoint_interval : int;
  seed : int64;
}

let default protocol =
  {
    protocol;
    f = 1;
    batches = 1;
    crash_budget = 0;
    equivocate = None;
    spurious_fs = None;
    digest_blind = false;
    explore_watchdogs = false;
    checkpoint_interval = 0;
    seed = 1L;
  }

(* The byzantine process, when a value fault is configured, is always
   process 0: the initial SC/SCR pair-1 primary, the BFT view-0 primary and
   the CT initial coordinator, so [Equivocate_at] actually reaches a minting
   decision point in a short run. *)
let faulty_process spec =
  match (spec.equivocate, spec.spurious_fs) with
  | Some o, _ -> Some (0, P.Fault.Equivocate_at o)
  | None, Some at -> Some (0, P.Fault.Spurious_fail_signal_at at)
  | None, None -> None

let byzantine spec = match faulty_process spec with Some (i, _) -> [ i ] | None -> []

let validate spec =
  if spec.f < 1 then Error "f must be >= 1"
  else if spec.batches < 1 then Error "batches must be >= 1"
  else if spec.crash_budget < 0 then Error "fault budget must be >= 0"
  else if spec.crash_budget > spec.f then
    Error
      (Printf.sprintf "crash budget %d exceeds the fault-tolerance bound f = %d"
         spec.crash_budget spec.f)
  else if spec.digest_blind && spec.protocol <> Bft then
    Error "--mutant (digest-blind vote pooling) only applies to bft"
  else if spec.equivocate <> None && spec.spurious_fs <> None then
    Error "at most one Byzantine fault per model (equivocate or spurious)"
  else if spec.spurious_fs <> None && spec.protocol <> Sc && spec.protocol <> Scr
  then Error "spurious fail-signals only apply to the paired protocols (sc, scr)"
  else Ok ()

(* Batches are sized to exactly one request, so [spec.batches] requests
   become [spec.batches] orders — the unit the model counts in. *)
let config spec =
  P.Config.make ~kind:(cluster_kind spec.protocol) ~batch_size_limit:1
    ~checkpoint_interval:spec.checkpoint_interval
    ~unsafe_digest_blind_votes:spec.digest_blind ~f:spec.f ()

let describe spec =
  let n = P.Config.process_count (config spec) in
  Printf.sprintf "%s n=%d f=%d batches=%d crashes<=%d%s%s%s%s"
    (protocol_name spec.protocol)
    n spec.f spec.batches spec.crash_budget
    (match spec.equivocate with
    | Some o -> Printf.sprintf " equivocate@%d" o
    | None -> "")
    (match spec.spurious_fs with
    | Some t -> Printf.sprintf " spurious@%.0fms" (Simtime.to_ms t)
    | None -> "")
    (if spec.digest_blind then " mutant:digest-blind" else "")
    (if spec.explore_watchdogs then " watchdogs:on" else "")
