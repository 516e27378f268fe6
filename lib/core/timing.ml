module Simtime = Sof_sim.Simtime
module Estimator = Sof_net.Delay_estimator

type t = {
  mode : Config.timing;
  initial : Simtime.t;
  ests : Estimator.t option array;  (* per-peer RTT estimators, lazy *)
  probe_accepted : int array;  (* highest reply nonce accepted per peer *)
  mutable probe_nonce : int;
  mutable suspicions : int;  (* consecutive suspicions of the leader *)
}

let create ~mode ~initial ~peers =
  {
    mode;
    initial;
    ests = Array.make peers None;
    probe_accepted = Array.make peers 0;
    probe_nonce = 0;
    suspicions = 0;
  }

let adaptive t = match t.mode with Config.Adaptive -> true | Config.Static -> false

let base t = t.initial

let est_for t peer =
  match t.ests.(peer) with
  | Some e -> e
  | None ->
    let e = Estimator.create ~initial:t.initial () in
    t.ests.(peer) <- Some e;
    e

let timer_cap t = Simtime.ns (64 * Simtime.to_ns t.initial)

let backed_off t base ~level = Estimator.backed_off base ~level ~cap:(timer_cap t)

let can_back_off t base ~level =
  adaptive t && Simtime.compare (backed_off t base ~level) (timer_cap t) < 0

let retry_delay t base ~level = if adaptive t then backed_off t base ~level else base

let estimate t peer =
  match t.mode with
  | Config.Static -> t.initial
  | Config.Adaptive -> Estimator.timeout (est_for t peer)

let suspected t = t.suspicions <- t.suspicions + 1
let trusted t = t.suspicions <- 0
let suspicion_delay t ~leader = retry_delay t (estimate t leader) ~level:t.suspicions

let next_probe t =
  t.probe_nonce <- t.probe_nonce + 1;
  t.probe_nonce

let note_probe_reply t ~now ~src ~nonce ~at =
  if adaptive t && nonce > t.probe_accepted.(src) then begin
    t.probe_accepted.(src) <- nonce;
    Estimator.observe (est_for t src) (Simtime.diff now (Simtime.ns at))
  end
