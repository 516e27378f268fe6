module Simtime = Sof_sim.Simtime
module Request = Sof_smr.Request
module Key_map = Request.Key_map
module Key_set = Request.Key_set
module Int_set = Set.Make (Int)

(* Votes for one sequence number, keyed by digest: a vote is either being a
   signatory of the doubly-signed order or having sent a matching ack.  The
   proof tuples back the BackLog's "proof of commitment". *)
type votes = {
  mutable sources : Int_set.t;
  mutable proof : (int * string) list;
}

type slot = {
  o : int;
  mutable digest : string;  (* authoritative once [have_order] *)
  mutable keys : Request.key list;
  mutable have_order : bool;
  mutable era : int;
  mutable acked : bool;
  mutable committed : bool;
  mutable null : bool;
  votes_by_digest : (string, votes) Hashtbl.t;
}

type report = int * Message.order_info list

type 'x hooks = {
  era : 'x t -> int;
  rank_of : 'x t -> int -> int;
  settled : 'x t -> bool;
  up : 'x t -> bool;
  am_primary : 'x t -> bool;
  am_shadow : 'x t -> bool;
  transmit : 'x t -> bool;
  quorum : 'x t -> int;
  endorses_checkpoints : 'x t -> bool;
  down : 'x t -> value_domain:bool -> unit;
  pair_failed : 'x t -> int -> unit;
}

and 'x t = {
  ctx : Context.t;
  config : Config.t;
  fault : Fault.t;
  counterpart_fail_signal : string option;
  pair_rank : int option;
  counterpart : int option;
  all_ids : int list;
  log : slot Recovery.log;
  timing : Timing.t;
  recovery : slot Recovery.hooks;
  hooks : 'x hooks;
  x : 'x;
  mutable committed_digest : string;
  mutable committed_era : int;
  mutable committed_proof : (int * string) list;
  mutable start_covers : Message.order_info list;
  mutable anchor_seen : int;
  mutable stash_future : (int * Message.envelope) list;
  mutable batch_timer : Context.timer option;
  mutable endorsement_watches : (int * Context.timer) list;
  mutable expected_seq : int;
  mutable last_progress : Simtime.t;
  mutable stashed_endorsements : (Simtime.t * Message.envelope * Message.order_info) list;
  mutable watch_timer : Context.timer option;
  mutable stash_retry_armed : bool;
  mutable shadow_watch_level : int;
  mutable view_ordered_keys : Key_set.t;
  mutable fail_signalled : bool;
  mutable last_heard : Simtime.t;
  mutable heartbeat_timer : Context.timer option;
  mutable beat : int;
  mutable hb_level : int;
  mutable ckpt_proposals : (Message.envelope * int * string) list;
  mutable ckpt_certs : Checkpoint.cert list;
  reports : (int, (int * report) list ref) Hashtbl.t;
}

(* ------------------------------------------------------------ accessors *)

let id t = t.ctx.Context.id
let rank t = t.hooks.rank_of t (t.hooks.era t)
let coordinator_is_pair t = Config.candidate_is_pair t.config (rank t)
let others t = List.filter (fun p -> not (Int.equal p (id t))) t.all_ids
let null_digest t = Recovery.batch_digest t.log (Batch.make [])
let cancel = function Some h -> h.Context.cancel () | None -> ()

(* --------------------------------------------------------- transmission *)

let can_transmit t =
  t.hooks.transmit t && not (Fault.is_mute t.fault ~now:(t.ctx.Context.now ()))

let send t ~dst env = if can_transmit t then t.ctx.Context.send ~dst env

let multicast t ~dsts env = if can_transmit t then t.ctx.Context.multicast ~dsts env

(* Is this envelope doubly-signed by exactly the members of pair [rank]? *)
let doubly_signed_by_pair t ~rank (env : Message.envelope) =
  Config.candidate_is_pair t.config rank
  && begin
       match env.Message.endorsement with
       | None -> false
       | Some (who, _) ->
         let members = Config.candidate_members t.config rank in
         List.mem env.Message.sender members && List.mem who members
     end

(* An order from candidate [rank] is acceptable when doubly-signed by the
   pair, or singly-signed when the candidate is SC's final unpaired
   process (which, by SC2 and the ranking argument, must be non-faulty when
   it coordinates).  Every SCR candidate is a pair. *)
let valid_coordinator_message t ~rank (env : Message.envelope) =
  if Config.candidate_is_pair t.config rank then doubly_signed_by_pair t ~rank env
  else
    env.Message.endorsement = None
    && Int.equal env.Message.sender (Config.primary_of_pair t.config rank)

let fail_signal_authentic t ~pair (env : Message.envelope) =
  let members = Config.candidate_members t.config pair in
  List.length members = 2
  && List.mem env.Message.sender members
  && begin
       match env.Message.endorsement with
       | Some (who, _) -> List.mem who members && not (Int.equal who env.Message.sender)
       | None -> false
     end
  && Context.authentic t.ctx env

(* ------------------------------------------------------ adaptive timing *)

(* The deadline standing in for the static differential-delay bound.  In
   adaptive mode it is the counterpart link's Jacobson deadline; a round
   trip upper-bounds the one-way differential, so the substitution is
   conservative — it can only delay a time-domain fail-signal, never forge
   evidence (timers gate accusations, not safety). *)
let pair_estimate t =
  match t.counterpart with
  | Some cp -> Timing.estimate t.timing cp
  | None -> Timing.base t.timing

(* Adaptive suspicion discipline.  An expired adaptive deadline is first
   evidence of a wrong estimate, not of a failed counterpart: the Jacobson
   estimate lags a delay that is still growing (each measurement is a full
   round trip stale), so a merely-slow peer routinely overshoots it.  Each
   watch therefore doubles its own budget and re-waits, and accuses only
   once the backed-off budget has saturated the hard cap and the counterpart
   still missed it.  Static mode keeps the paper's Sync reading — one
   configured estimate, lateness is failure — untouched.  The trade is
   explicit: adaptive detection of a genuinely dead counterpart takes up to
   ~2x the cap (the doubling sum), bounded and documented, in exchange for
   emitting no premature signal against a straggler. *)
let budget_at t ~level = Timing.backed_off t.timing (pair_estimate t) ~level

let can_back_off t ~level = Timing.can_back_off t.timing (pair_estimate t) ~level

(* ----------------------------------------------------------- order log *)

let get_order t o =
  match Hashtbl.find_opt t.log.Recovery.orders o with
  | Some st -> st
  | None ->
    let st =
      {
        o;
        digest = "";
        keys = [];
        have_order = false;
        era = 0;
        acked = false;
        committed = false;
        null = false;
        votes_by_digest = Hashtbl.create 4;
      }
    in
    Hashtbl.replace t.log.Recovery.orders o st;
    st

let votes_for st digest =
  match Hashtbl.find_opt st.votes_by_digest digest with
  | Some v -> v
  | None ->
    let v = { sources = Int_set.empty; proof = [] } in
    Hashtbl.replace st.votes_by_digest digest v;
    v

let add_vote st ~digest ~source ~signature =
  let v = votes_for st digest in
  if not (Int_set.mem source v.sources) then begin
    v.sources <- Int_set.add source v.sources;
    v.proof <- (source, signature) :: v.proof
  end

(* Both signatures of an order-like envelope count as votes. *)
let add_signatories st ~digest (env : Message.envelope) =
  add_vote st ~digest ~source:env.Message.sender ~signature:env.Message.signature;
  match env.Message.endorsement with
  | Some (who, s) -> add_vote st ~digest ~source:who ~signature:s
  | None -> ()

(* ---------------------------------------------------------- trace spans *)
(* The log holds which spans are open; a committed order opens no batch. *)

let open_batch_span t st =
  if not st.committed then Recovery.span_open t.log Context.Batch_phase st.o

(* ------------------------------------------------------- checkpointing *)
(* Pair-endorsed stable checkpoints: the coordinator primary signs its state
   digest at each boundary and its shadow endorses after comparing against
   its own boundary image — at most one pair member is faulty, so the double
   signature carries at least one correct process's word for the digest.
   SC's unpaired last candidate certifies with a single signature: by the
   sequential-failure assumption it is correct whenever it coordinates. *)

let ckpt_pair_ok config ~primary ~endorser =
  let ranks = List.init (Config.candidate_count config) (fun i -> i + 1) in
  match endorser with
  | Some s ->
    List.exists
      (fun r ->
        Config.candidate_is_pair config r
        &&
        let members = Config.candidate_members config r in
        List.mem primary members && List.mem s members && not (Int.equal primary s))
      ranks
  | None ->
    List.exists
      (fun r ->
        (not (Config.candidate_is_pair config r))
        && Int.equal primary (Config.primary_of_pair config r))
      ranks

let cert_of_ckpt_env (env : Message.envelope) ~seq ~digest =
  {
    Checkpoint.cp_seq = seq;
    cp_digest = digest;
    cp_proof = [ (env.Message.sender, env.Message.signature) ];
    cp_endorsement = env.Message.endorsement;
  }

(* A verified certificate becomes stable here once our own boundary image
   for that seq exists and matches; a cert running ahead of our delivery
   waits in [ckpt_certs] for the boundary to catch up. *)
let ckpt_adopt_cert t (cert : Checkpoint.cert) =
  let rcv = t.log.Recovery.rcv in
  if cert.Checkpoint.cp_seq > Recovery.stable_seq rcv then begin
    match Recovery.image_at rcv ~seq:cert.Checkpoint.cp_seq with
    | Some (image, digest) when String.equal digest cert.Checkpoint.cp_digest ->
      Recovery.adopt t.log cert ~image
    | Some _ ->
      (* A certified digest that disagrees with our own image: not a state we
         can serve; ignore (a lagging or diverged replica recovers through
         state transfer instead). *)
      ()
    | None ->
      if not (List.exists (fun c -> Checkpoint.equal_cert c cert) t.ckpt_certs) then
        t.ckpt_certs <- cert :: t.ckpt_certs
  end

(* Shadow side of a phase-1 checkpoint proposal: endorse only when the
   primary's digest matches our own image for that boundary.  A mismatch is
   refused rather than fail-signalled — checkpoint certification is a
   liveness aid, and refusing keeps a diverged digest from being certified. *)
let shadow_handle_checkpoint t (env : Message.envelope) ~seq ~digest =
  match Recovery.image_at t.log.Recovery.rcv ~seq with
  | Some (_, kept) ->
    if String.equal kept digest then begin
      let endorsed = Context.endorse t.ctx env in
      multicast t ~dsts:(others t) endorsed;
      ckpt_adopt_cert t (cert_of_ckpt_env endorsed ~seq ~digest)
    end
  | None ->
    if seq > t.log.Recovery.delivered then
      t.ckpt_proposals <- (env, seq, digest) :: t.ckpt_proposals

let retry_ckpt_stash t =
  let proposals = t.ckpt_proposals in
  t.ckpt_proposals <- [];
  List.iter
    (fun (env, seq, digest) ->
      if seq > Recovery.stable_seq t.log.Recovery.rcv then begin
        match Recovery.image_at t.log.Recovery.rcv ~seq with
        | Some _ -> shadow_handle_checkpoint t env ~seq ~digest
        | None -> t.ckpt_proposals <- (env, seq, digest) :: t.ckpt_proposals
      end)
    proposals;
  let certs = t.ckpt_certs in
  t.ckpt_certs <- [];
  List.iter (fun cert -> ckpt_adopt_cert t cert) certs

let checkpoint_boundary t o =
  let digest = Recovery.boundary_image t.log o in
  if t.hooks.am_primary t then begin
    let env = Context.make_signed t.ctx (Message.Checkpoint { seq = o; digest }) in
    if coordinator_is_pair t then
      (* Phase 1: 1-to-1 to the shadow for endorsement. *)
      send t ~dst:(Config.shadow_of_pair t.config (rank t)) env
    else begin
      (* Unpaired coordinator: singleton certificate straight to everyone. *)
      multicast t ~dsts:(others t) env;
      ckpt_adopt_cert t (cert_of_ckpt_env env ~seq:o ~digest)
    end
  end;
  retry_ckpt_stash t

(* ------------------------------------------------------------- commits *)

let record_commit t st =
  if not st.committed then begin
    Recovery.close_batch_spans t.log st.o;
    st.committed <- true;
    if st.o > t.log.Recovery.max_committed then begin
      t.log.Recovery.max_committed <- st.o;
      t.committed_digest <- st.digest;
      t.committed_era <- st.era;
      t.committed_proof <-
        (match Hashtbl.find_opt st.votes_by_digest st.digest with
        | Some v -> v.proof
        | None -> [])
    end;
    t.ctx.Context.emit (Context.Committed { seq = st.o; digest = st.digest; keys = st.keys });
    Recovery.advance t.recovery
  end

let try_commit t st =
  if st.have_order && not st.committed then begin
    let v = votes_for st st.digest in
    if Int_set.cardinal v.sources >= t.hooks.quorum t then begin
      record_commit t st;
      (* Committing the Start placeholder commits everything it covers. *)
      if st.null && t.start_covers <> [] then begin
        let covered = t.start_covers in
        t.start_covers <- [];
        List.iter
          (fun (info : Message.order_info) ->
            let cst = get_order t info.Message.o in
            if not cst.committed then begin
              cst.have_order <- true;
              cst.digest <- info.Message.digest;
              cst.keys <- info.Message.keys;
              record_commit t cst
            end)
          covered
      end;
      Recovery.advance t.recovery
    end
  end

let send_ack t st =
  if st.have_order && not st.acked then begin
    st.acked <- true;
    Recovery.span_close t.log Context.Order_phase st.o;
    Recovery.span_open t.log Context.Ack_phase st.o;
    let body = Message.Ack { c = st.era; o = st.o; digest = st.digest } in
    multicast t ~dsts:t.all_ids (Context.make_signed t.ctx body)
  end

(* Process an authentic order from the coordinator of [era] (doubly-signed
   for pairs, singly-signed for SC's unpaired last candidate). *)
let accept_order t (env : Message.envelope) ~era ~(info : Message.order_info) =
  let st = get_order t info.Message.o in
  if st.have_order then begin
    (* Duplicate (the 2-to-n phase delivers two copies); votes still count.
       Conflicting doubly-signed orders would mean both pair members failed
       — outside the fault model; first writer wins. *)
    if String.equal st.digest info.Message.digest then begin
      add_signatories st ~digest:st.digest env;
      send_ack t st;
      try_commit t st
    end
  end
  else begin
    st.have_order <- true;
    st.digest <- info.Message.digest;
    st.keys <- info.Message.keys;
    st.era <- era;
    open_batch_span t st;
    Recovery.span_close t.log Context.Endorse_phase st.o;
    Recovery.span_open t.log Context.Order_phase st.o;
    if info.Message.keys = [] then st.null <- true;
    List.iter (Recovery.note_ordered t.log) info.Message.keys;
    add_signatories st ~digest:st.digest env;
    send_ack t st;
    try_commit t st
  end

(* ---------------------------------------------------- pair fail-signals *)

let rec emit_fail_signal t ~value_domain =
  match (t.pair_rank, t.counterpart_fail_signal, t.counterpart) with
  | _ when t.fault = Fault.Withhold_fail_signal ->
    (* Saboteur: sit on the evidence.  Detection must come from the other
       member's signal or from the receivers' own timeouts. *)
    ()
  | Some rank, Some presig, Some cp when (not t.fail_signalled) && t.hooks.up t ->
    t.fail_signalled <- true;
    t.hooks.down t ~value_domain;
    cancel t.watch_timer;
    t.watch_timer <- None;
    List.iter (fun (_, h) -> h.Context.cancel ()) t.endorsement_watches;
    t.endorsement_watches <- [];
    cancel t.batch_timer;
    t.batch_timer <- None;
    let body = Message.Fail_signal { pair = rank } in
    let env = Context.endorse t.ctx (Message.forge ~sender:cp ~signature:presig body) in
    t.ctx.Context.emit (Context.Fail_signal_emitted { pair = rank; value_domain });
    if value_domain then t.ctx.Context.emit (Context.Value_fault_detected { pair = rank });
    multicast t ~dsts:(others t) env;
    t.hooks.pair_failed t rank
  | _ -> ()

(* ------------------------------------------------------ normal batching *)

and arm_batch_timer t =
  t.batch_timer <-
    Some
      (t.ctx.Context.set_timer ~delay:t.config.Config.batching_interval (fun () ->
           batch_tick t))

and batch_tick t =
  (* The unpaired candidate has no pair to lose; pairs batch only while the
     collaboration is alive. *)
  if t.hooks.am_primary t && (Option.is_none t.pair_rank || t.hooks.up t) then begin
    let pool = Recovery.unordered t.log in
    if not (Key_map.is_empty pool) then issue_batch t pool;
    arm_batch_timer t
  end

and issue_batch t pool =
  let info =
    Recovery.mint t.recovery
      (Batch.take_oldest ~limit:t.config.Config.batch_size_limit ~pool
         ~arrival:t.log.Recovery.arrival)
  in
  let o = info.Message.o in
  open_batch_span t (get_order t o);
  let era = t.hooks.era t in
  let env = Context.make_signed t.ctx (Message.Order { c = era; info }) in
  if coordinator_is_pair t then begin
    let shadow = Config.shadow_of_pair t.config (rank t) in
    match t.fault with
    | Fault.Equivocate_at at when Int.equal at o ->
      (* Equivocation: two conflicting orders for the same sequence number.
         The shadow is asked to endorse a corrupted digest — a value-domain
         failure it must detect and fail-signal — while the rest of the
         cohort receives the honest digest without the pair's double
         signature, which they reject as unendorsed.  Either way no honest
         receiver can assemble a doubly-signed order for this [o]. *)
      let conflicting =
        { info with Message.digest = Recovery.flip_first_byte info.Message.digest }
      in
      send t ~dst:shadow (Context.make_signed t.ctx (Message.Order { c = era; info = conflicting }));
      multicast t ~dsts:(List.filter (fun p -> not (Int.equal p shadow)) (others t)) env
    | _ ->
      (* Phase 1: 1-to-1 to the shadow for endorsement. *)
      Recovery.span_open t.log Context.Endorse_phase o;
      send t ~dst:shadow env;
      arm_endorsement_watch t o ~level:0
  end
  else begin
    (* Unpaired coordinator: singly-signed order straight to everyone. *)
    multicast t ~dsts:(others t) env;
    accept_order t env ~era ~info
  end

and arm_endorsement_watch t o ~level =
  let watch =
    t.ctx.Context.set_timer ~kind:Context.Watchdog ~delay:(budget_at t ~level) (fun () ->
        endorsement_overdue t o ~level)
  in
  t.endorsement_watches <- (o, watch) :: t.endorsement_watches

and endorsement_overdue t o ~level =
  t.endorsement_watches <- List.remove_assoc o t.endorsement_watches;
  let endorsed =
    match Hashtbl.find_opt t.log.Recovery.orders o with
    | Some st -> st.have_order
    | None -> false
  in
  if not endorsed then
    if can_back_off t ~level then arm_endorsement_watch t o ~level:(level + 1)
    else
      (* Time-domain failure of the shadow (assumption 3(a)(i): the estimate
         is accurate, so lateness means failure; in adaptive mode the budget
         already walked to the hard cap first). *)
      emit_fail_signal t ~value_domain:false

(* ------------------------------------- shadow checking and endorsement *)

and shadow_validate_order t ~(info : Message.order_info) =
  if not (Int.equal info.Message.o t.expected_seq) then
    if info.Message.o < t.expected_seq then `Duplicate
    else
      (* A gap is not evidence: the network is non-FIFO, so a later order can
         overtake an earlier one we are still deferring on.  Stash it until
         the gap fills. *)
      `Defer
  else if
    (* Double-ordering is only evidence of misbehaviour within the current
       era: a primary installed after a fail-over or view change may not
       know which keys earlier coordinators already ordered, and
       re-proposing them is benign now that delivery is at-most-once. *)
    List.exists (fun k -> Key_set.mem k t.view_ordered_keys) info.Message.keys
  then `Invalid
  else if info.Message.keys = [] then `Invalid
  else begin
    let lookup k =
      match Key_map.find_opt k t.log.Recovery.pending with
      | Some r -> Some r
      | None -> Request.Key_tbl.find_opt t.log.Recovery.executed k
    in
    let requests = List.filter_map lookup info.Message.keys in
    if not (Int.equal (List.length requests) (List.length info.Message.keys)) then `Defer
    else begin
      let batch = Batch.make requests in
      t.ctx.Context.digest_charge (Batch.encoded_size batch);
      if String.equal (Recovery.batch_digest t.log batch) info.Message.digest then `Valid
      else `Invalid
    end
  end

and shadow_handle_order t (env : Message.envelope) ~(info : Message.order_info) =
  match t.fault with
  | Fault.Drop_endorsements -> ()
  | _ -> begin
    match shadow_validate_order t ~info with
    | `Duplicate -> ()
    | `Defer ->
      let st = get_order t info.Message.o in
      open_batch_span t st;
      Recovery.span_open t.log Context.Endorse_phase st.o;
      t.stashed_endorsements <- (t.ctx.Context.now (), env, info) :: t.stashed_endorsements;
      retry_stashed_later t
    | `Invalid -> begin
      match t.fault with
      | Fault.Endorse_corrupt_at at when Int.equal at info.Message.o -> shadow_endorse t env ~info
      | _ -> emit_fail_signal t ~value_domain:true
    end
    | `Valid ->
      let st = get_order t info.Message.o in
      open_batch_span t st;
      Recovery.span_open t.log Context.Endorse_phase st.o;
      shadow_endorse t env ~info
  end

and shadow_endorse t (env : Message.envelope) ~(info : Message.order_info) =
  t.expected_seq <- info.Message.o + 1;
  t.last_progress <- t.ctx.Context.now ();
  t.shadow_watch_level <- 0;
  List.iter
    (fun k ->
      Recovery.note_ordered t.log k;
      t.view_ordered_keys <- Key_set.add k t.view_ordered_keys)
    info.Message.keys;
  let endorsed = Context.endorse t.ctx env in
  (* Phase 2: 2-to-n — the shadow multicasts the endorsed order... *)
  multicast t ~dsts:(others t) endorsed;
  accept_order t endorsed ~era:(t.hooks.era t) ~info;
  rearm_shadow_watch t

and retry_stashed_later t =
  (* Requests the primary referenced should arrive shortly (clients
     broadcast); recheck after the pair delay estimate.  A still-unresolvable
     order is a timeout, not proof of misbehaviour — a slow wire is
     indistinguishable from an inventing primary. *)
  if not t.stash_retry_armed then begin
    t.stash_retry_armed <- true;
    ignore
      (t.ctx.Context.set_timer ~kind:Context.Watchdog ~delay:(pair_estimate t) (fun () ->
           t.stash_retry_armed <- false;
           retry_stashed t))
  end

and retry_stashed t =
  let stashed = t.stashed_endorsements in
  t.stashed_endorsements <- [];
  (* Ascending sequence order so that endorsing a gap-filler immediately
     unblocks the overtaking orders stashed behind it. *)
  let stashed =
    List.sort
      (fun (_, _, (a : Message.order_info)) (_, _, (b : Message.order_info)) ->
        Int.compare a.Message.o b.Message.o)
      stashed
  in
  List.iter
    (fun (since, env, (info : Message.order_info)) ->
      match shadow_validate_order t ~info with
      | `Valid -> shadow_endorse t env ~info
      | `Duplicate -> ()
      | `Invalid -> emit_fail_signal t ~value_domain:true
      | `Defer ->
        let age = Simtime.diff (t.ctx.Context.now ()) since in
        (* In adaptive mode the wire may legitimately hold a gap open for as
           long as the hard cap — only a gap older than that is evidence. *)
        let limit =
          if Timing.adaptive t.timing then Timing.timer_cap t.timing else pair_estimate t
        in
        if Simtime.compare age limit >= 0 then
          (* Timeout, not proof: the referenced requests (or the gap
             predecessor) never showed up.  Time-domain. *)
          emit_fail_signal t ~value_domain:false
        else begin
          t.stashed_endorsements <- (since, env, info) :: t.stashed_endorsements;
          if Timing.adaptive t.timing then retry_stashed_later t
        end)
    stashed

(* Shadow watches the primary: every known request must be ordered within
   batching_interval + pair_delay_estimate of its arrival (time-domain check,
   Section 3.1 (ii)). *)
and rearm_shadow_watch t =
  cancel t.watch_timer;
  t.watch_timer <- None;
  if t.hooks.am_shadow t && t.hooks.up t then begin
    let unordered =
      Key_map.filter
        (fun k _ -> not (Recovery.key_ordered t.log k))
        t.log.Recovery.arrival
    in
    match Key_map.min_binding_opt unordered with
    | None -> ()
    | Some (_, oldest) ->
      let budget =
        Simtime.add t.config.Config.batching_interval (budget_at t ~level:t.shadow_watch_level)
      in
      (* The primary is timely as long as it keeps ordering: it must produce
         an endorsable order within [budget] of max(last endorsement, oldest
         unordered arrival) — per-request age alone would falsely accuse a
         merely backlogged primary. *)
      let deadline = Simtime.add (Simtime.max oldest t.last_progress) budget in
      let now = t.ctx.Context.now () in
      let delay =
        if Simtime.compare deadline now <= 0 then Simtime.ns 1 else Simtime.diff deadline now
      in
      t.watch_timer <-
        Some
          (t.ctx.Context.set_timer ~kind:Context.Watchdog ~delay (fun () ->
               shadow_watch_fired t))
  end

and shadow_watch_fired t =
  t.watch_timer <- None;
  if t.hooks.am_shadow t && t.hooks.up t then begin
    let budget =
      Simtime.add t.config.Config.batching_interval (budget_at t ~level:t.shadow_watch_level)
    in
    if not (Recovery.stalled t.log ~since:t.last_progress ~budget) then rearm_shadow_watch t
    else if can_back_off t ~level:t.shadow_watch_level then begin
      t.shadow_watch_level <- t.shadow_watch_level + 1;
      rearm_shadow_watch t
    end
    else emit_fail_signal t ~value_domain:false
  end

(* ------------------------------------------------------------ heartbeat *)

let arm_heartbeat t tick =
  match (t.pair_rank, t.counterpart) with
  | Some rank, Some cp ->
    t.heartbeat_timer <-
      Some
        (t.ctx.Context.set_timer ~kind:Context.Watchdog
           ~delay:t.config.Config.heartbeat_interval (fun () -> tick rank cp))
  | _ -> ()

let beat t ~rank ~cp =
  t.beat <- t.beat + 1;
  send t ~dst:cp (Context.make_signed t.ctx (Message.Heartbeat { pair = rank; beat = t.beat }));
  if Timing.adaptive t.timing then Recovery.send_probe t.recovery cp;
  let silence = Simtime.diff (t.ctx.Context.now ()) t.last_heard in
  let hb = t.config.Config.heartbeat_interval in
  Simtime.compare silence (Simtime.add (Simtime.add hb hb) (budget_at t ~level:t.hb_level)) <= 0

let keep_beating t ~timely =
  if timely then begin
    t.hb_level <- 0;
    true
  end
  else if can_back_off t ~level:t.hb_level then begin
    t.hb_level <- t.hb_level + 1;
    true
  end
  else begin
    emit_fail_signal t ~value_domain:false;
    false
  end

(* ------------------------------------------------- install and views *)

let new_back_log t reports =
  (* Anchor: the highest proven committed sequence number. *)
  let anchor = List.fold_left (fun acc (max_committed, _) -> max acc max_committed) 0 reports in
  (* Candidate uncommitted orders above the anchor, grouped by (o, digest)
     with their support counts.  The paper's principle: an order possibly
     committed by a correct process appears in at least f+1 of any (n-f)
     reports, so the best-supported digest is the only safe choice. *)
  let support : (int * string, int * Message.order_info) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (_, uncommitted) ->
      List.iter
        (fun (info : Message.order_info) ->
          if info.Message.o > anchor then begin
            let key = (info.Message.o, info.Message.digest) in
            match Hashtbl.find_opt support key with
            | Some (n, i) -> Hashtbl.replace support key (n + 1, i)
            | None -> Hashtbl.replace support key (1, info)
          end)
        uncommitted)
    reports;
  let by_o : (int, (int * Message.order_info) list) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (o, _) (n, info) ->
      let cur = Option.value (Hashtbl.find_opt by_o o) ~default:[] in
      Hashtbl.replace by_o o ((n, info) :: cur))
    support;
  let chosen =
    Hashtbl.fold
      (fun _o cands acc ->
        let best =
          List.sort
            (fun (n1, i1) (n2, i2) ->
              let c = Int.compare n2 n1 in
              if c <> 0 then c else String.compare i1.Message.digest i2.Message.digest)
            cands
        in
        match best with [] -> acc | (_, info) :: _ -> info :: acc)
      by_o []
    |> List.sort (fun a b -> Int.compare a.Message.o b.Message.o)
  in
  let start_o =
    1 + List.fold_left (fun acc (i : Message.order_info) -> max acc i.Message.o) anchor chosen
  in
  (* Fill holes with null orders so delivery never stalls. *)
  let nd = null_digest t in
  let filled =
    List.init (start_o - anchor - 1) (fun idx ->
        let o = anchor + 1 + idx in
        match List.find_opt (fun (i : Message.order_info) -> Int.equal i.Message.o o) chosen with
        | Some info -> info
        | None -> { Message.o; digest = nd; keys = [] })
  in
  (start_o, anchor, filled)

let plausible t ~start_o ~anchor ~new_back_log ~reports =
  (* The proposer may have seen commits we did not (its quorum of reports
     need not include ours), so the anchor may legitimately sit below our
     own max_committed; what the proposal must never do is contradict an
     order we know committed or conflict with an (f+1)-supported digest. *)
  let commits_preserved =
    let rec check o =
      o > t.log.Recovery.max_committed
      || begin
           (match Hashtbl.find_opt t.log.Recovery.orders o with
           | Some st when st.committed ->
             List.exists
               (fun (i : Message.order_info) ->
                 Int.equal i.Message.o o && String.equal i.Message.digest st.digest)
               new_back_log
           | Some _ | None -> true)
           && check (o + 1)
         end
    in
    check (anchor + 1)
  in
  start_o > anchor && commits_preserved
  && List.for_all
       (fun (info : Message.order_info) ->
         let competing =
           List.filter
             (List.exists (fun (i : Message.order_info) ->
                  Int.equal i.Message.o info.Message.o
                  && not (String.equal i.Message.digest info.Message.digest)))
             reports
         in
         List.length competing < t.config.Config.f + 1)
       new_back_log

(* The report table: per era, the first report of each sender, newest
   first. *)
let add_report t ~era ~src report =
  let cell =
    match Hashtbl.find_opt t.reports era with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.replace t.reports era cell;
      cell
  in
  (not (List.mem_assoc src !cell))
  && begin
       cell := (src, report) :: !cell;
       true
     end

let reports t ~era =
  match Hashtbl.find_opt t.reports era with Some cell -> List.map snd !cell | None -> []

let propose t ~era body =
  let reports = reports t ~era in
  if List.length reports >= t.hooks.quorum t then begin
    let start_o, anchor, new_back_log = new_back_log t reports in
    Some (Context.make_signed t.ctx (body ~start_o ~anchor ~new_back_log))
  end
  else None

(* The new shadow checks its primary's proposal against the reports it
   received itself (the paper's p'c verification), then endorses and
   multicasts it. *)
let judge_proposal t (env : Message.envelope) ~era ~start_o ~anchor ~new_back_log ~install =
  let reports = List.map snd (reports t ~era) in
  if plausible t ~start_o ~anchor ~new_back_log ~reports then begin
    let endorsed = Context.endorse t.ctx env in
    multicast t ~dsts:(others t) endorsed;
    install endorsed
  end
  else emit_fail_signal t ~value_domain:true

let install t (env : Message.envelope) ~era ~start_o ~anchor ~new_back_log ~primary ~shadow =
  t.start_covers <-
    List.filter (fun (i : Message.order_info) -> i.Message.o > t.log.Recovery.max_committed)
      new_back_log;
  List.iter
    (fun (info : Message.order_info) ->
      (* Below the stable checkpoint the log is truncated and settled; the
         back-log must not resurrect those sequences. *)
      if info.Message.o > Recovery.stable_seq t.log.Recovery.rcv then begin
        let st = get_order t info.Message.o in
        if not st.committed then begin
          st.have_order <- true;
          st.digest <- info.Message.digest;
          st.keys <- info.Message.keys;
          st.era <- era;
          if info.Message.keys = [] then st.null <- true;
          List.iter (Recovery.note_ordered t.log) info.Message.keys
        end
      end)
    new_back_log;
  if anchor > t.anchor_seen then t.anchor_seen <- anchor;
  (* The installing message itself is an order at start_o (SC step IN5). *)
  let payload = env.Message.body_bytes in
  t.ctx.Context.digest_charge (String.length payload);
  let digest = Sof_crypto.Digest_alg.digest t.config.Config.digest payload in
  let st = get_order t start_o in
  if not st.committed then begin
    st.have_order <- true;
    st.digest <- digest;
    st.keys <- [];
    st.null <- true;
    st.era <- era;
    add_signatories st ~digest env
  end;
  (* New coordinator roles. *)
  if primary then begin
    t.log.Recovery.next_seq <- start_o + 1;
    arm_batch_timer t
  end;
  if shadow then begin
    t.expected_seq <- start_o + 1;
    t.last_progress <- t.ctx.Context.now ()
  end;
  t.view_ordered_keys <- Key_set.empty;
  (* Stashed endorsements are from the superseded era; anything still
     legitimate is covered by the install's back-log. *)
  t.stashed_endorsements <- [];
  st

(* -------------------------------------------------------------- inbound *)

let take_stash t =
  let stash = List.rev t.stash_future in
  t.stash_future <- [];
  stash

let on_order t ~src (env : Message.envelope) ~era ~(info : Message.order_info) =
  let log = t.log in
  (* Sequence numbers at or below the stable checkpoint are settled and
     truncated — stragglers must not resurrect them in the log. *)
  if info.Message.o <= Recovery.stable_seq log.Recovery.rcv then ()
  else if Int.equal era (t.hooks.era t) && t.hooks.settled t then begin
    let rank = rank t in
    if env.Message.endorsement = None && Config.candidate_is_pair t.config rank then begin
      (* Phase-1 unendorsed order: only meaningful at the shadow. *)
      if
        t.hooks.am_shadow t && t.hooks.up t
        && Int.equal src (Config.primary_of_pair t.config rank)
        && Int.equal env.Message.sender src
        && Context.authentic t.ctx env
      then shadow_handle_order t env ~info
    end
    else if valid_coordinator_message t ~rank env && Context.authentic t.ctx env then begin
      (* The primary forwards the endorsed order to everyone (phase 2). *)
      if
        t.hooks.am_primary t
        && Int.equal env.Message.sender (id t)
        && not (Int.equal src (id t))
      then begin
        (match List.assoc_opt info.Message.o t.endorsement_watches with
        | Some h ->
          h.Context.cancel ();
          t.endorsement_watches <- List.remove_assoc info.Message.o t.endorsement_watches
        | None -> ());
        multicast t ~dsts:(others t) env
      end;
      accept_order t env ~era ~info
    end
  end
  else if era > t.hooks.era t || not (t.hooks.settled t) then
    t.stash_future <- (src, env) :: t.stash_future
  else if
    (* Catch-up: a late order from a superseded coordinator.  Sequences at
       or below an installed anchor are proven committed, and under the pair
       fault model the valid coordinator message for a given sequence is
       unique, so adopting its content is safe — this is how a replica
       partitioned across the install recovers the orders whose acks it
       already holds.  Fresh sequences from a deposed coordinator (above the
       anchor, where the install may have decided differently) stay
       dropped. *)
    info.Message.o <= t.anchor_seen
    && valid_coordinator_message t ~rank:(t.hooks.rank_of t era) env
    && Context.authentic t.ctx env
  then accept_order t env ~era ~info

let on_message t ~src (env : Message.envelope) =
  let log = t.log in
  match env.Message.body with
  | Message.Heartbeat _ -> () (* the receipt time is all they carry *)
  | Message.Order { c; info } -> on_order t ~src env ~era:c ~info
  | Message.Ack { o; digest; _ } ->
    if o > Recovery.stable_seq log.Recovery.rcv && Context.authentic t.ctx env then begin
      let st = get_order t o in
      add_vote st ~digest ~source:env.Message.sender ~signature:env.Message.signature;
      if st.have_order && String.equal st.digest digest then try_commit t st
    end
  | Message.Checkpoint { seq; digest } ->
    if
      log.Recovery.interval > 0
      && seq > Recovery.stable_seq log.Recovery.rcv
      && Context.authentic t.ctx env
    then begin
      (match env.Message.endorsement with
      | None -> begin
        (* Either a phase-1 proposal addressed to this pair's shadow, or SC's
           unpaired candidate's complete singleton certificate. *)
        match (t.pair_rank, t.counterpart) with
        | Some r, Some cp
          when Int.equal env.Message.sender cp
               && Int.equal cp (Config.primary_of_pair t.config r)
               && t.hooks.endorses_checkpoints t ->
          shadow_handle_checkpoint t env ~seq ~digest
        | _ ->
          if ckpt_pair_ok t.config ~primary:env.Message.sender ~endorser:None then
            ckpt_adopt_cert t (cert_of_ckpt_env env ~seq ~digest)
      end
      | Some (who, _) ->
        if ckpt_pair_ok t.config ~primary:env.Message.sender ~endorser:(Some who) then
          ckpt_adopt_cert t (cert_of_ckpt_env env ~seq ~digest));
      Recovery.catch_up t.recovery ~seq
    end
  | Message.State_request { have } ->
    if Context.authentic t.ctx env then Recovery.serve_state_request t.recovery ~src ~have
  | Message.State_response { cert; image; entries } ->
    if Context.authentic t.ctx env then Recovery.handle_state_response t.recovery ~src ~cert ~image ~entries
  | Message.Probe { nonce; at } -> Recovery.answer_probe t.recovery ~src ~nonce ~at
  | Message.Probe_reply { nonce; at } -> Recovery.note_probe_reply t.recovery ~src ~nonce ~at
  | Message.Fail_signal _ | Message.Back_log _ | Message.Start _ | Message.Start_ack _
  | Message.Start_tuples _ | Message.View_change _ | Message.New_view _
  | Message.Unwilling _ | Message.Pre_prepare _ | Message.Prepare _ | Message.Commit _
  | Message.Bft_view_change _ | Message.Bft_new_view _ ->
    () (* the core's own traffic, or another protocol's *)

let note_heard t ~src =
  match t.counterpart with
  | Some cp when Int.equal cp src -> t.last_heard <- t.ctx.Context.now ()
  | Some _ | None -> ()

(* Pool every body on its first arrival, ordered or not: a batch committed
   before its body arrived delivers only now. *)
let on_request t (req : Request.t) =
  let log = t.log in
  let key = req.Request.key in
  if not (Key_map.mem key log.Recovery.pending) then begin
    log.Recovery.pending <- Key_map.add key req log.Recovery.pending;
    if not (Recovery.key_ordered log key) then begin
      log.Recovery.arrival <- Key_map.add key (t.ctx.Context.now ()) log.Recovery.arrival;
      (* A newly known request lets stashed endorsements re-validate and
         (re)arms the shadow's timeliness watch. *)
      if t.stashed_endorsements <> [] then retry_stashed t;
      if t.hooks.am_shadow t && t.watch_timer = None then rearm_shadow_watch t
    end;
    Recovery.advance t.recovery
  end

let start t ~arm_heartbeat =
  if Option.is_some t.pair_rank then arm_heartbeat ();
  if t.hooks.am_primary t then arm_batch_timer t;
  match t.fault with
  | Fault.Spurious_fail_signal_at at when Option.is_some t.pair_rank ->
    (* Fail-signal abuse: accuse the innocent counterpart at the given
       instant (processes start at simulated time zero, so the instant and
       the timer delay coincide). *)
    ignore (t.ctx.Context.set_timer ~delay:at (fun () -> emit_fail_signal t ~value_domain:false))
  | _ -> ()

let create ~name ~ctx ~service ~config ~fault ~counterpart_fail_signal ~hooks x =
  let pid = ctx.Context.id in
  let pair_rank = Config.pair_rank_of config pid in
  (match (pair_rank, counterpart_fail_signal) with
  | Some _, None ->
    raise (Config.Invalid_config (name ^ ".create: paired process needs counterpart_fail_signal"))
  | None, Some _ ->
    raise (Config.Invalid_config (name ^ ".create: unpaired process cannot hold a fail-signal"))
  | _ -> ());
  let timing =
    Timing.create ~mode:config.Config.timing ~initial:config.Config.pair_delay_estimate
      ~peers:(Config.process_count config)
  in
  let log =
    Recovery.create_log ~ctx ~service ~f:config.Config.f ~digest:config.Config.digest
      ~interval:config.Config.checkpoint_interval
  in
  let rec t =
    {
      ctx;
      config;
      fault;
      counterpart_fail_signal;
      pair_rank;
      counterpart = Config.counterpart config pid;
      all_ids = Config.all_processes config;
      log;
      timing;
      recovery =
        {
          Recovery.log;
          timing;
          scheme = Recovery.Pair_endorsed { pair_ok = ckpt_pair_ok config };
          entry_quorum = config.Config.f + 1;
          fault;
          retry_base =
            (fun () -> Simtime.add config.Config.heartbeat_interval (pair_estimate t));
          committed_keys =
            (fun st -> if st.committed then Some (if st.null then [] else st.keys) else None);
          keep_executed = true;
          settle_fresh_only = false;
          boundary = (fun o -> checkpoint_boundary t o);
          tail_entry =
            (fun o st -> if st.committed then Recovery.batch_entry log ~o st.keys else None);
          admit =
            (fun e ->
              let st = get_order t e.Checkpoint.e_o in
              (not st.committed)
              && begin
                   st.have_order <- true;
                   st.digest <- e.Checkpoint.e_digest;
                   st.keys <-
                     List.map (fun (r : Request.t) -> r.Request.key) e.Checkpoint.e_requests;
                   if e.Checkpoint.e_requests = [] then st.null <- true;
                   st.committed <- true;
                   true
                 end);
          sign = Context.make_signed ctx;
          send = (fun ~dst env -> send t ~dst env);
          multicast = (fun env -> multicast t ~dsts:(others t) env);
        };
      hooks;
      x;
      committed_digest = "";
      committed_era = 0;
      committed_proof = [];
      start_covers = [];
      anchor_seen = 0;
      stash_future = [];
      batch_timer = None;
      endorsement_watches = [];
      expected_seq = 1;
      last_progress = Simtime.zero;
      stashed_endorsements = [];
      watch_timer = None;
      stash_retry_armed = false;
      shadow_watch_level = 0;
      view_ordered_keys = Key_set.empty;
      fail_signalled = false;
      last_heard = Simtime.zero;
      heartbeat_timer = None;
      beat = 0;
      hb_level = 0;
      ckpt_proposals = [];
      ckpt_certs = [];
      reports = Hashtbl.create 4;
    }
  in
  t
