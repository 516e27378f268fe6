module Simtime = Sof_sim.Simtime
module Engine = Sof_sim.Engine
module Network = Sof_net.Network
module Channel = Sof_net.Channel
module Delay_model = Sof_net.Delay_model
module Link_fault = Sof_net.Link_fault
module Rng = Sof_util.Rng
module P = Sof_protocol
module Request = Sof_smr.Request

type action =
  | Partition of int list list
  | Heal
  | Crash of int
  | Surge of float
  | Clear_surge
  | Restart of int
  | Crash_all
  | Restart_all
  | Straggler of { who : int; factor : float }
  | Clear_straggler of int
  | Slow_link of { src : int; dst : int; factor : float }
  | Clear_slow_link of { src : int; dst : int }

type step = { at : Simtime.t; action : action }

type plan = {
  steps : step list;
  byz_faults : (int * P.Fault.t) list;
  link_fault : Link_fault.t;
}

type layer =
  | Lossy
  | Byzantine
  | Restart
  | Durable
  | Disk_faults
  | Gray of P.Config.timing

type report = {
  layers : layer list;
  kind : Cluster.kind;
  f : int;
  seed : int64;
  plan : plan;
  invariants : Invariants.result list;
  channel : Channel.stats option;
  net : Network.stats;
  honest : int list;
  crashed : int list;
  min_honest_deliveries : int;
  injected : int;
  replays_injected : int;
  corruptions_injected : int;
  restarted : int list;
  churn : int * int * int;
  signals : Metrics.signal_accounting;
  recovery : Metrics.recovery option;
  storage : Metrics.storage option;
  passed : bool;
}

let gray_timing layers = List.find_map (function Gray t -> Some t | _ -> None) layers

(* Compatibility rules, worded for the [sof chaos] flags that select each
   layer: a campaign that cannot honour a layer rejects it rather than
   silently ignoring it. *)
let rejection ?(auth = Sof_crypto.Keyring.Sign) layers =
  let has l = List.mem l layers in
  let gray = gray_timing layers <> None in
  if not (gray || has Lossy) && layers <> [] then
    Some
      "--long is a fail-free endurance run; drop --byz/--restart/--durable/\
       --disk-faults"
  else if
    gray && List.exists (function Durable | Gray _ -> false | _ -> true) layers
  then
    Some
      "--gray campaigns have no faulty process and crash nothing; they take \
       only --durable (slow-sector disks) and --timing"
  else if gray && auth = Sof_crypto.Keyring.Mac then
    Some "--gray campaigns run signed; drop --auth mac"
  else if has Disk_faults && not (has Durable) then
    Some "--disk-faults arms the atlas on durable disks; add --durable"
  else if has Byzantine && has Restart && not (has Durable) then
    Some
      "--byz trades the campaign's crash away, leaving no crash target to \
       --restart, unless the cluster is --durable (the fault then moves to \
       the repair path); drop one or add --durable"
  else None

(* ------------------------------------------------------ process layout *)

(* Partition units: pair members must stay on the same side, otherwise a
   partition reads as a pair failure — permanent under SC's assumptions and
   outside what the campaign means to test. *)
let partition_units config =
  List.filter_map
    (fun i ->
      match P.Config.counterpart config i with
      | Some cp when cp > i -> Some [ i; cp ]
      | Some _ -> None
      | None -> Some [ i ])
    (P.Config.all_processes config)

(* A process whose crash the protocol absorbs without exhausting the fault
   budget: a non-candidate replica for SC/SCR, the last process otherwise. *)
let crash_target ~rng (config : P.Config.t) =
  match config.kind with
  | Cluster.Sc_protocol | Cluster.Scr_protocol -> config.f + 1 + Rng.int rng config.f
  | Cluster.Bft_protocol | Cluster.Ct_protocol -> P.Config.process_count config - 1

(* One Byzantine fault, aimed at pair 1 — the initial coordinator, so the
   fault's decision point is actually reached early in the run.  The whole
   f-budget goes to this fault; the caller drops the crash step in exchange
   (a crash plus a Byzantine pair member would be two faults at f = 1,
   starving the quorum).  BFT gets only the wire faults and muteness, on a
   backup: its simplified view change has no prepared certificates, so an
   equivocating primary may legally stall a sequence number — agreement
   holds but the liveness invariant would cry wolf. *)
let byz_fault ~rng (config : P.Config.t) ~duration =
  let frac x = Simtime.scale duration x in
  match config.kind with
  | Cluster.Ct_protocol -> []
  | Cluster.Bft_protocol ->
    let backup = P.Config.process_count config - 1 in
    let fault =
      match Rng.int rng 3 with
      | 0 -> P.Fault.Mute_at (frac (0.3 +. Rng.float rng 0.3))
      | 1 -> P.Fault.Replay_stale (1 + Rng.int rng 3)
      | _ -> P.Fault.Corrupt_wire (4 + Rng.int rng 4)
    in
    [ (backup, fault) ]
  | Cluster.Sc_protocol | Cluster.Scr_protocol ->
    let primary = P.Config.primary_of_pair config 1 in
    let shadow = P.Config.shadow_of_pair config 1 in
    let member () = if Rng.bool rng then primary else shadow in
    let menu = match config.kind with Cluster.Scr_protocol -> 8 | _ -> 7 in
    (match Rng.int rng menu with
    | 0 -> [ (primary, P.Fault.Equivocate_at (2 + Rng.int rng 6)) ]
    | 1 -> [ (primary, P.Fault.Corrupt_digest_at (2 + Rng.int rng 6)) ]
    | 2 -> [ (shadow, P.Fault.Drop_endorsements) ]
    | 3 -> [ (member (), P.Fault.Mute_at (frac (0.3 +. Rng.float rng 0.3))) ]
    | 4 ->
      [ (member (), P.Fault.Spurious_fail_signal_at (frac (0.25 +. Rng.float rng 0.25))) ]
    | 5 -> [ (member (), P.Fault.Replay_stale (1 + Rng.int rng 3)) ]
    | 6 -> [ (member (), P.Fault.Corrupt_wire (4 + Rng.int rng 4)) ]
    | _ ->
      (* SCR: the next candidate pair's member refuses every candidacy.
         Harmless unless pair 1 also fails — which the budget forbids — so
         this campaign checks precisely that the spam alone does no harm. *)
      [
        ( (if Rng.bool rng then P.Config.primary_of_pair config 2
           else P.Config.shadow_of_pair config 2),
          P.Fault.Unwilling_spam );
      ])

(* The {!Lossy} campaign.  The draws come in a fixed order — substrate,
   then the restart time, then the blackout, then the Byzantine fault — and
   each layer's draws happen only under it, so a plan without a layer
   replays byte-for-byte the draws of the plan beneath it. *)
let random_plan ~byz ~restart ~disk ~rng ~kind ~f ~duration =
  let config = P.Config.make ~kind ~f () in
  let frac x = Simtime.scale duration x in
  let link_fault =
    Link_fault.make
      ~drop:(0.01 +. Rng.float rng 0.03)
      ~duplicate:(Rng.float rng 0.02)
      ~reorder:(0.05 +. Rng.float rng 0.10)
      ~reorder_window:(Simtime.ms (1 + Rng.int rng 5))
      ()
  in
  (* Two nonempty sides out of the partition units, pairs intact. *)
  let split_groups () =
    let units = Array.of_list (partition_units config) in
    let k = Array.length units in
    (* Fisher–Yates on the unit order, then cut at a random point. *)
    for i = k - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let tmp = units.(i) in
      units.(i) <- units.(j);
      units.(j) <- tmp
    done;
    let cut = 1 + Rng.int rng (k - 1) in
    let side = List.concat (Array.to_list (Array.sub units 0 cut)) in
    [ List.sort compare side ]
  in
  let surge_at = frac (0.05 +. Rng.float rng 0.08) in
  let surge_end = Simtime.add surge_at (frac (0.08 +. Rng.float rng 0.08)) in
  let part_at = frac (0.22 +. Rng.float rng 0.08) in
  let part_end = Simtime.add part_at (frac (0.08 +. Rng.float rng 0.10)) in
  let crash_at = frac (0.45 +. Rng.float rng 0.10) in
  let part2_at = frac (0.58 +. Rng.float rng 0.05) in
  let part2_end = Simtime.add part2_at (frac (0.05 +. Rng.float rng 0.05)) in
  let second_partition = Rng.bool rng in
  let steps =
    [
      { at = surge_at; action = Surge (2.0 +. Rng.float rng 2.0) };
      { at = surge_end; action = Clear_surge };
      { at = part_at; action = Partition (split_groups ()) };
      { at = part_end; action = Heal };
      { at = crash_at; action = Crash (crash_target ~rng config) };
    ]
    @ (if second_partition then
         [
           { at = part2_at; action = Partition (split_groups ()) };
           { at = part2_end; action = Heal };
         ]
       else [])
  in
  let steps = List.sort (fun a b -> Simtime.compare a.at b.at) steps in
  (* Crash-restart: bring the crash target back at ~62% of the run, well
     before the terminal heal, so recovery happens under observation.  The
     target is read back from the crash step and the extra time draw only
     happens when asked, so plans without [restart] replay byte-for-byte. *)
  let steps =
    if restart then
      match
        List.find_opt
          (fun s -> match s.action with Crash _ -> true | _ -> false)
          steps
      with
      | Some { action = Crash who; _ } ->
        let restart_at = frac (0.60 +. Rng.float rng 0.08) in
        List.sort
          (fun a b -> Simtime.compare a.at b.at)
          ({ at = restart_at; action = Restart who } :: steps)
      | _ -> steps
    else steps
  in
  (* Disk campaigns end with a whole-cluster blackout: every process goes
     down at once — no live peer holds the state — and the subsequent mass
     restart must recover it from the disks (write-ahead-log replay, with
     state transfer only for damaged suffixes).  The extra draws happen only
     under [disk], so plans without it replay byte-for-byte. *)
  let steps =
    if disk && restart then
      let down_at = frac (0.68 +. Rng.float rng 0.03) in
      let up_at = frac (0.74 +. Rng.float rng 0.03) in
      List.sort
        (fun a b -> Simtime.compare a.at b.at)
        ({ at = down_at; action = Crash_all }
        :: { at = up_at; action = Restart_all }
        :: steps)
    else steps
  in
  if not byz then { steps; byz_faults = []; link_fault }
  else if disk then begin
    (* Storage-Byzantine campaign: the fault lives in the repair path — a
       replica serving state transfers from a tampered local log — so the
       crash-restart that triggers repair stays in the plan.  The f-budget
       is already spent on the disks of replicas 1..f (the atlas), so the
       tamperer is one of them; the crash target never is, since a repair
       server must be alive to lie. *)
    let byz_faults =
      match kind with
      | Cluster.Ct_protocol -> []
      | Cluster.Sc_protocol | Cluster.Scr_protocol | Cluster.Bft_protocol ->
        [ (1 + Rng.int rng f, P.Fault.Corrupt_wal_suffix) ]
    in
    { steps; byz_faults; link_fault }
  end
  else begin
    (* The Byzantine fault replaces the crash in the f-budget; the draws
       above are kept so the substrate campaign is the same either way. *)
    let steps =
      List.filter (fun s -> match s.action with Crash _ -> false | _ -> true) steps
    in
    { steps; byz_faults = byz_fault ~rng config ~duration; link_fault }
  end

(* ----------------------------------------------------------- gray plans *)

(* The straggler: a process whose slowness the protocol must absorb
   without suspicion in adaptive mode — and which challenges the detector
   most directly.  SC/SCR: the shadow of pair 1, so the coordinator
   primary's endorsement watch times every order against it.  BFT/CT: the
   last backup — a gray follower the quorum does not need, so neither
   timing mode has grounds to change views over it (the static/adaptive
   contrast the campaign demonstrates is SC's pair detector). *)
let gray_target (config : P.Config.t) =
  match config.kind with
  | Cluster.Sc_protocol | Cluster.Scr_protocol -> P.Config.shadow_of_pair config 1
  | Cluster.Bft_protocol | Cluster.Ct_protocol -> P.Config.process_count config - 1

(* Two processes that are neither the straggler nor pair-1 members, for
   the one-way slow-link and degrading-link components. *)
let gray_bystanders ~kind ~f =
  match kind with
  | Cluster.Sc_protocol -> (f, f + 1) (* unpaired replicas *)
  | Cluster.Scr_protocol -> (f + 1, (2 * f) + 2) (* unpaired + pair-2 shadow *)
  | Cluster.Bft_protocol -> (1, 2)
  | Cluster.Ct_protocol -> if f = 1 then (1, 0) else (1, 2)

(* The {!Gray} campaign: a 28-step geometric straggler ramp cleared at
   80% of the run, an early jitter-surge ramp, a one-way slow link and a
   link that degrades in stages. *)
let gray_plan ~rng ~kind ~f ~duration =
  let frac x = Simtime.scale duration x in
  let target = gray_target (P.Config.make ~kind ~f ()) in
  let a, b = gray_bystanders ~kind ~f in
  (* Straggler ramp: geometric, gentle (x1.25 per step) so an adaptive
     estimator fed by 50 ms probes can track each increment inside its
     srtt + 4*rttvar slack, while the cumulative slowdown (x~4000 at the
     top) pushes pair round-trips far past any sane static estimate.  A
     sudden jump would trip the adaptive detector too — gray failures
     creep, they do not step. *)
  let ramp_start = 0.08 and ramp_end = 0.68 in
  let ramp_steps = 28 in
  let growth = 1.25 and base_factor = 8.0 in
  let ramp =
    List.init ramp_steps (fun k ->
        let x =
          ramp_start
          +. (ramp_end -. ramp_start) *. float_of_int k /. float_of_int ramp_steps
        in
        {
          at = frac x;
          action =
            Straggler
              { who = target; factor = base_factor *. (growth ** float_of_int k) };
        })
  in
  (* Jitter surge ramp, confined to the early phase while the straggler
     factor is still small: compounding a delay surge onto a near-peak
     straggler would out-run any estimator. *)
  let surge =
    [
      {
        at = frac (0.14 +. Rng.float rng 0.02);
        action = Surge (1.2 +. Rng.float rng 0.1);
      };
      {
        at = frac (0.26 +. Rng.float rng 0.02);
        action = Surge (1.45 +. Rng.float rng 0.15);
      };
      { at = frac (0.38 +. Rng.float rng 0.02); action = Clear_surge };
    ]
  in
  (* One asymmetric one-way slowdown and, in the opposite direction, a
     link that degrades in stages — both between bystanders the quorum
     can route around. *)
  let slow =
    [
      {
        at = frac (0.18 +. Rng.float rng 0.04);
        action =
          Slow_link { src = a; dst = b; factor = 16.0 +. Rng.float rng 16.0 };
      };
      {
        at = frac (0.58 +. Rng.float rng 0.04);
        action = Clear_slow_link { src = a; dst = b };
      };
    ]
  in
  let degrade =
    List.mapi
      (fun i factor ->
        {
          at = frac (0.24 +. (0.1 *. float_of_int i));
          action = Slow_link { src = b; dst = a; factor };
        })
      [ 4.0; 8.0; 16.0; 32.0 ]
    @ [ { at = frac 0.72; action = Clear_slow_link { src = b; dst = a } } ]
  in
  let steps =
    List.sort
      (fun x y -> Simtime.compare x.at y.at)
      (ramp
      @ [ { at = frac 0.80; action = Clear_straggler target } ]
      @ surge @ slow @ degrade)
  in
  { steps; byz_faults = []; link_fault = Link_fault.none }

(* --------------------------------------------------------------- apply *)

(* The delay model [Cluster.build] installed on a directed link: the fast
   pair link inside a pair, the LAN model everywhere else.  Gray actions
   scale {e relative to} this baseline, so clearing one is just
   re-installing it. *)
let baseline_delay cluster ~src ~dst =
  if P.Config.counterpart (Cluster.config cluster) src = Some dst
  then (Cluster.spec cluster).Cluster.pair_link
  else Delay_model.lan_default

let apply_action cluster action =
  let net = Cluster.network cluster in
  let n = Cluster.process_count cluster in
  let scale_link ~src ~dst factor =
    Network.set_link net ~src ~dst
      (Delay_model.scale (baseline_delay cluster ~src ~dst) factor)
  in
  let scale_all_links who factor =
    for j = 0 to n - 1 do
      if j <> who then begin
        scale_link ~src:who ~dst:j factor;
        scale_link ~src:j ~dst:who factor
      end
    done
  in
  match action with
  | Partition groups -> Network.partition net ~groups
  | Heal -> Network.heal net
  | Crash who -> Cluster.crash cluster who
  | Surge factor -> Network.set_surge net ~factor
  | Clear_surge -> Network.clear_surge net
  | Restart who -> Cluster.restart cluster who
  | Crash_all ->
    for i = 0 to Cluster.process_count cluster - 1 do
      Cluster.crash cluster i
    done
  | Restart_all ->
    for i = 0 to Cluster.process_count cluster - 1 do
      Cluster.restart cluster i
    done
  | Straggler { who; factor } -> scale_all_links who factor
  | Clear_straggler who -> scale_all_links who 1.0
  | Slow_link { src; dst; factor } -> scale_link ~src ~dst factor
  | Clear_slow_link { src; dst } -> scale_link ~src ~dst 1.0

(* Synthetic clients, like Workload.install but recording every injected
   request key so validity can be judged. *)
let install_recorded_workload cluster ~rate ~duration ~injected =
  let engine = Cluster.engine cluster in
  let clients = 4 in
  let horizon = Simtime.add (Engine.now engine) duration in
  let per_client_rate = rate /. float_of_int clients in
  let mean_gap_ms = 1000.0 /. per_client_rate in
  for client = 0 to clients - 1 do
    let rng = Engine.fork_rng engine in
    let seq = ref 0 in
    let rec arrive () =
      let gap = Simtime.of_ms_float (Rng.exponential rng ~mean:mean_gap_ms) in
      let at = Simtime.add (Engine.now engine) gap in
      if Simtime.compare at horizon <= 0 then
        ignore
          (Engine.schedule engine ~delay:gap (fun () ->
               incr seq;
               let key = Printf.sprintf "k%d" (Rng.int rng 10_000) in
               let op = Sof_smr.Kv_store.encode_op (Sof_smr.Kv_store.Put (key, "v")) in
               let req = Request.make ~client ~client_seq:!seq ~op in
               injected := Request.Key_set.add req.Request.key !injected;
               Cluster.inject_request cluster req;
               arrive ()))
    in
    arrive ()
  done

(* ----------------------------------------------------------------- run *)

let run ?(auth = Sof_crypto.Keyring.Sign) ?(pair_estimate = Simtime.ms 400)
    ~layers ~kind ~f ~seed ~duration () =
  Option.iter invalid_arg (rejection ~auth layers);
  let has l = List.mem l layers in
  let gray = gray_timing layers in
  let lossy = has Lossy and durable = has Durable in
  (* Labelled substreams keep the campaign stream distinct from the
     engine's root without consuming from it, and gray draws apart from
     classic ones for the same seed. *)
  let plan_rng label = Rng.substream (Rng.create seed) label in
  let plan =
    if lossy then
      random_plan ~byz:(has Byzantine) ~restart:(has Restart) ~disk:durable
        ~rng:(plan_rng "nemesis-plan") ~kind ~f ~duration
    else if gray <> None then
      gray_plan ~rng:(plan_rng "nemesis-gray") ~kind ~f ~duration
    else { steps = []; byz_faults = []; link_fault = Link_fault.none }
  in
  (* A restart recovers through a certified checkpoint, not by replaying
     the whole log; the write-ahead log replays from the last persisted
     checkpoint image, and delivery marks — what the durability invariant
     audits — only exist when checkpointing is on; the endurance run
     exists to show the log staying bounded. *)
  let checkpoint_interval =
    if has Restart || durable || not (lossy || gray <> None) then 8 else 0
  in
  let spec =
    {
      (Cluster.default_spec ~kind ~f) with
      Cluster.auth;
      batching_interval = Simtime.ms 50;
      (* Generous by LAN standards — the paper's assumption 3(a) bound, so
         retransmission over a lossy pair link does not read as a
         time-domain pair failure — yet finite, which is all a gray
         straggler needs. *)
      pair_delay_estimate = pair_estimate;
      heartbeat_interval = Simtime.ms 50;
      seed;
      faults = plan.byz_faults;
      timing = Option.value gray ~default:P.Config.Static;
      (* In a gray campaign nothing fails, so nothing may hide behind
         retransmission: the protocols run bare on reliable links. *)
      use_channel = lossy;
      checkpoint_interval;
      durable;
      disk_profile =
        (if has Disk_faults then Some Sof_storage.Fault_atlas.default
         else if durable && gray <> None then
           Some Sof_storage.Fault_atlas.slow_sectors
         else None);
    }
  in
  let cluster = Cluster.build spec in
  let net = Cluster.network cluster in
  let engine = Cluster.engine cluster in
  Network.set_all_link_faults net plan.link_fault;
  List.iter
    (fun { at; action } ->
      ignore (Engine.schedule_at engine ~at (fun () -> apply_action cluster action)))
    plan.steps;
  let heal_time =
    List.fold_left (fun acc s -> Simtime.max acc s.at) Simtime.zero plan.steps
  in
  (* Every lossy campaign ends whole: whatever the last step left severed
     or surged is repaired at its instant, and liveness is judged after
     it. *)
  if lossy then
    ignore
      (Engine.schedule_at engine ~at:heal_time (fun () ->
           Network.heal net;
           Network.clear_surge net));
  let injected = ref Request.Key_set.empty in
  install_recorded_workload cluster ~rate:150.0 ~duration ~injected;
  Cluster.run cluster ~until:(Simtime.add duration (Simtime.sec 3));
  (* Judge. *)
  let n = Cluster.process_count cluster in
  let byz = List.map fst plan.byz_faults in
  let honest =
    List.filter (fun i -> not (List.mem i byz)) (List.init n Fun.id)
  in
  let crashed = List.filter (Network.is_crashed net) (List.init n Fun.id) in
  let live_honest = List.filter (fun i -> not (List.mem i crashed)) honest in
  let restarted =
    List.sort_uniq compare
      (List.filter_map
         (fun (_, who, ev) ->
           match ev with P.Context.Node_restarted -> Some who | _ -> None)
         (Cluster.events cluster))
  in
  (* Degraded window: first straggler step to its clear — the interval
     over which delivery must degrade rather than stop. *)
  let degradation () =
    let degraded_from =
      List.fold_left
        (fun acc s ->
          match s.action with Straggler _ -> Simtime.min acc s.at | _ -> acc)
        heal_time plan.steps
    in
    let degraded_until =
      List.fold_left
        (fun acc s ->
          match s.action with Clear_straggler _ -> Simtime.max acc s.at | _ -> acc)
        degraded_from plan.steps
    in
    Invariants.degradation_liveness cluster ~honest ~degraded_from ~degraded_until
  in
  let invariants =
    [
      Invariants.agreement cluster ~honest;
      Invariants.prefix_consistency cluster ~honest;
      Invariants.validity cluster ~honest ~injected:!injected;
    ]
    @ (if gray <> None then [ degradation () ] else [])
    @ [ Invariants.liveness_after_heal cluster ~honest:live_honest ~heal_time ]
    @ (if gray = None then
         [
           Invariants.fail_signal_accountability cluster ~crashed ~by:heal_time;
           Invariants.coordinator_succession cluster ~crashed ~by:heal_time;
         ]
       else [])
    (* Adaptive timers are judged on zero churn; a static run under the
       same straggler is expected to churn — the report carries its counts
       instead of a verdict. *)
    @ (if gray = Some P.Config.Adaptive then
         [ Invariants.no_premature_suspicion cluster ]
       else [])
    @ (if checkpoint_interval > 0 then
         [
           Invariants.checkpoint_agreement cluster ~honest;
           Invariants.bounded_log cluster ~live:live_honest ~slack:64;
         ]
       else [])
    @ (if restarted <> [] then
         [ Invariants.recovery_liveness cluster ~by:heal_time ]
       else [])
    @ (if durable then
         [ Invariants.durability cluster ~live:live_honest ~injected:!injected ]
       else [])
    @
    if durable && restarted <> [] then
      [ Invariants.repair_correctness cluster ~live:live_honest ]
    else []
  in
  let deliveries = Array.make n 0 in
  List.iter
    (fun (_, who, event) ->
      match event with
      | P.Context.Delivered _ -> deliveries.(who) <- deliveries.(who) + 1
      | _ -> ())
    (Cluster.events cluster);
  let min_honest_deliveries =
    List.fold_left (fun acc i -> min acc deliveries.(i)) max_int live_honest
  in
  let replays_injected, corruptions_injected =
    match Cluster.adversary cluster with
    | Some adv ->
      (Adversary.replays_injected adv, Adversary.corruptions_injected adv)
    | None -> (0, 0)
  in
  {
    layers;
    kind;
    f;
    seed;
    plan;
    invariants;
    channel = Option.map Channel.total_stats (Cluster.channel cluster);
    net = Network.stats net;
    honest;
    crashed;
    min_honest_deliveries;
    injected = Request.Key_set.cardinal !injected;
    replays_injected;
    corruptions_injected;
    restarted;
    churn = Invariants.suspicion_churn cluster;
    signals = Metrics.signal_accounting cluster;
    recovery =
      (if checkpoint_interval > 0 then Some (Metrics.recovery_stats cluster)
       else None);
    storage = Metrics.storage_stats cluster;
    passed = Invariants.all_pass invariants;
  }

(* -------------------------------------------------------------- report *)

let pp_action fmt = function
  | Partition groups ->
    Format.fprintf fmt "partition {%s} | rest"
      (String.concat "} {"
         (List.map
            (fun g -> String.concat " " (List.map string_of_int g))
            groups))
  | Heal -> Format.pp_print_string fmt "heal"
  | Crash who -> Format.fprintf fmt "crash p%d" who
  | Surge factor -> Format.fprintf fmt "surge x%.1f" factor
  | Clear_surge -> Format.pp_print_string fmt "surge clear"
  | Restart who -> Format.fprintf fmt "restart p%d" who
  | Crash_all -> Format.pp_print_string fmt "crash all"
  | Restart_all -> Format.pp_print_string fmt "restart all"
  | Straggler { who; factor } -> Format.fprintf fmt "straggler p%d x%.1f" who factor
  | Clear_straggler who -> Format.fprintf fmt "straggler p%d clear" who
  | Slow_link { src; dst; factor } ->
    Format.fprintf fmt "slow link p%d->p%d x%.1f" src dst factor
  | Clear_slow_link { src; dst } ->
    Format.fprintf fmt "slow link p%d->p%d clear" src dst

let pp_report fmt r =
  let gray = gray_timing r.layers in
  Format.fprintf fmt "chaos: protocol=%s f=%d seed=%Ld%s@."
    (P.Replica.name r.kind) r.f r.seed
    (match gray with
    | Some t -> " timing=" ^ P.Config.timing_name t
    | None -> "");
  Format.fprintf fmt "substrate: %a@." Link_fault.pp r.plan.link_fault;
  (match r.plan.byz_faults with
  | [] -> ()
  | faults ->
    Format.fprintf fmt "byzantine:";
    List.iter (fun (i, ft) -> Format.fprintf fmt " p%d:%a" i P.Fault.pp ft) faults;
    Format.fprintf fmt "@.");
  Format.fprintf fmt "campaign:@.";
  List.iter
    (fun { at; action } ->
      Format.fprintf fmt "  %8.1fms  %a@." (Simtime.to_ms at) pp_action action)
    r.plan.steps;
  Format.fprintf fmt "invariants:@.";
  List.iter (fun res -> Format.fprintf fmt "  %a@." Invariants.pp_result res) r.invariants;
  Option.iter
    (fun c ->
      Format.fprintf fmt
        "channel: %d data, %d retransmits, %d dup-drops, %d stale-acks, %d \
         corrupt-drops, max backoff %a@."
        c.Channel.data_sent c.Channel.retransmits c.Channel.dup_drops
        c.Channel.stale_acks c.Channel.corrupt_drops Simtime.pp
        c.Channel.max_backoff_reached)
    r.channel;
  Format.fprintf fmt
    "network: %d sent, %d dropped, %d duplicated, %d reordered, %d severed@."
    r.net.Network.messages_sent r.net.Network.messages_dropped
    r.net.Network.messages_duplicated r.net.Network.messages_reordered
    r.net.Network.partition_dropped;
  if r.replays_injected > 0 || r.corruptions_injected > 0 then
    Format.fprintf fmt "adversary: %d stale replays, %d wire corruptions@."
      r.replays_injected r.corruptions_injected;
  if gray <> None then begin
    let fail_signals, view_changes, rotations = r.churn in
    Format.fprintf fmt
      "suspicion churn: %d fail-signals, %d view changes, %d coordinator \
       rotations%s@."
      fail_signals view_changes rotations
      (if gray = Some P.Config.Static then
         "  (every one premature: no process was faulty)"
       else "");
    Format.fprintf fmt "signals: %a@." Metrics.pp_signal_accounting r.signals
  end;
  Format.fprintf fmt "deliveries: min over honest survivors = %d (of %d injected)@."
    r.min_honest_deliveries r.injected;
  (match r.crashed with
  | [] -> ()
  | c ->
    Format.fprintf fmt "crashed:%s@."
      (String.concat "" (List.map (Printf.sprintf " p%d") c)));
  (match r.restarted with
  | [] -> ()
  | rs ->
    Format.fprintf fmt "restarted:%s@."
      (String.concat "" (List.map (Printf.sprintf " p%d") rs)));
  (match r.recovery with
  | None -> ()
  | Some rc ->
    Format.fprintf fmt
      "recovery: %d/%d restarts recovered%s; %d transfers installed, %d \
       rejected; %d stable checkpoints, %d truncations, max retained log %d@."
      rc.Metrics.rc_recovered rc.Metrics.rc_restarts
      (match rc.Metrics.rc_mean_recovery_ms with
      | Some ms -> Printf.sprintf " (mean %.1fms)" ms
      | None -> "")
      rc.Metrics.rc_transfers_installed rc.Metrics.rc_transfers_rejected
      rc.Metrics.rc_checkpoints_stable rc.Metrics.rc_truncations
      rc.Metrics.rc_max_log_length);
  (match r.storage with
  | None -> ()
  | Some st ->
    Format.fprintf fmt
      "storage: %d appends, %d syncs, %d checkpoint writes; %d replays (%d \
       entries, %d damaged); atlas hits: %d lost, %d misdirected, %d torn, %d \
       corrupt reads%s@."
      st.Metrics.st_appends st.Metrics.st_syncs st.Metrics.st_checkpoint_writes
      st.Metrics.st_replays st.Metrics.st_replayed_entries
      st.Metrics.st_damaged_replays st.Metrics.st_lost_writes
      st.Metrics.st_misdirected st.Metrics.st_torn st.Metrics.st_corrupt_reads
      (if st.Metrics.st_slow_ops > 0 then
         Printf.sprintf ", %d slow-sector stalls" st.Metrics.st_slow_ops
       else ""));
  Format.fprintf fmt "verdict: %s (seed %Ld replays this campaign)@."
    (if r.passed then "PASS" else "FAIL")
    r.seed
