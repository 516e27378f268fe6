type status = Up | Down | Permanently_down

(* SCR's own state: the view, this pair's status, and the view change. *)
type views = {
  mutable view : int;
  mutable changing_view : bool;
  mutable target_view : int;  (* the view we are trying to install *)
  mutable status : status;
  mutable new_view_sent : bool;
  mutable nv_watch : Context.timer option;
  echoed_fail_signals : (int * int * int, unit) Hashtbl.t;
      (* (pair, first signatory, view): echo and react once per view *)
}

type t = views Pair.t

(* ------------------------------------------------------------ accessors *)

let id = Pair.id
let view (t : t) = t.x.view
let pair_status (t : t) = t.x.status
let changing_view (t : t) = t.x.changing_view

let candidate_of_view (t : t) v =
  let k = Config.candidate_count t.config in
  let m = v mod k in
  if m = 0 then k else m

let coordinator_rank t = candidate_of_view t (view t)

let quorum (t : t) = Config.process_count t.config - t.config.Config.f

let i_am_coordinator_primary (t : t) =
  (not t.x.changing_view)
  && Int.equal (id t) (Config.primary_of_pair t.config (coordinator_rank t))
  && t.x.status = Up

let i_am_coordinator_shadow (t : t) =
  (not t.x.changing_view)
  && Int.equal (id t) (Config.shadow_of_pair t.config (coordinator_rank t))
  && t.x.status = Up

(* ------------------------------------------------ checkpointing (SCR) *)
(* Pair-endorsed (see Pair); every SCR candidate is a pair, so a
   certificate is always doubly signed. *)

let kernel (t : t) = Recovery.Kernel t.recovery

(* ----------------------------------------------------------- view change *)

let rec note_pair_failed (t : t) rank =
  t.ctx.Context.emit (Context.Fail_signal_observed { pair = rank });
  if Int.equal rank (coordinator_rank t) && not t.x.changing_view then begin
    Recovery.open_span t.log Context.Failover_phase rank;
    propose_view_change t (t.x.view + 1)
  end

and propose_view_change (t : t) v =
  if v > t.x.view && ((not t.x.changing_view) || v > t.x.target_view) then begin
    (* On escalation (Unwilling, competing proposals) the old target's span
       closes and the new one opens, keeping opens and closes balanced. *)
    Recovery.close_span t.log Context.View_change_phase;
    Recovery.open_span t.log Context.View_change_phase v;
    t.x.changing_view <- true;
    t.x.target_view <- v;
    t.x.new_view_sent <- false;
    Pair.cancel t.batch_timer;
    t.batch_timer <- None;
    Pair.cancel t.watch_timer;
    t.watch_timer <- None;
    Pair.cancel t.x.nv_watch;
    t.x.nv_watch <- None;
    let uncommitted =
      Hashtbl.fold
        (fun o (st : Pair.slot) acc ->
          if st.have_order && (not st.committed) && o > t.log.max_committed then
            { Message.o; digest = st.digest; keys = st.keys } :: acc
          else acc)
        t.log.orders []
      |> List.sort (fun a b -> Int.compare a.Message.o b.Message.o)
    in
    let body =
      Message.View_change
        {
          v;
          max_committed = t.log.max_committed;
          committed_digest = t.committed_digest;
          uncommitted;
        }
    in
    Pair.multicast t ~dsts:(Pair.others t) (Context.make_signed t.ctx body);
    store_view_change t ~src:(id t) ~v (t.log.max_committed, uncommitted);
    (* The candidate pair for v declares unwillingness at once. *)
    maybe_unwilling t v
  end

and maybe_unwilling (t : t) v =
  match t.pair_rank with
  (* The [Unwilling_spam] saboteur declares unwillingness even while Up,
     pushing every view past its own candidacies. *)
  | Some rank
    when Int.equal rank (candidate_of_view t v)
         && (t.x.status <> Up || t.fault = Fault.Unwilling_spam) ->
    let body = Message.Unwilling { v; pair = rank } in
    Pair.multicast t ~dsts:(Pair.others t) (Context.make_signed t.ctx body)
  | Some _ | None -> ()

and store_view_change (t : t) ~src ~v report =
  if Pair.add_report t ~era:v ~src report then begin
    maybe_send_new_view t v;
    arm_nv_watch t v
  end

(* The new coordinator primary computes the new backlog out of n-f
   ViewChange messages and multicasts the shadow-endorsed NewView. *)
and maybe_send_new_view (t : t) v =
  let rank = candidate_of_view t v in
  if
    t.x.changing_view && Int.equal v t.x.target_view && t.x.status = Up
    && Int.equal (id t) (Config.primary_of_pair t.config rank)
    && not t.x.new_view_sent
  then begin
    match
      Pair.propose t ~era:v (fun ~start_o ~anchor ~new_back_log ->
          Message.New_view { v; start_o; anchor; new_back_log })
    with
    | Some env ->
      t.x.new_view_sent <- true;
      Pair.send t ~dst:(Config.shadow_of_pair t.config rank) env
    | None -> ()
  end

(* The shadow of the candidate pair watches its primary during a view
   change: if the primary has a quorum of ViewChanges but produces no
   NewView proposal within the delay estimate, that is a time-domain
   failure. *)
and arm_nv_watch (t : t) v =
  let rank = candidate_of_view t v in
  if
    t.x.changing_view && Int.equal v t.x.target_view && t.x.status = Up
    && t.x.nv_watch = None
    && Int.equal (id t) (Config.shadow_of_pair t.config rank)
    && List.length (Pair.reports t ~era:v) >= quorum t
  then
    t.x.nv_watch <-
      Some
        (t.ctx.Context.set_timer ~kind:Context.Watchdog ~delay:(Pair.pair_estimate t)
           (fun () ->
             t.x.nv_watch <- None;
             if t.x.changing_view && Int.equal v t.x.target_view && t.x.status = Up then begin
               Pair.emit_fail_signal t ~value_domain:false;
               maybe_unwilling t v
             end))

and install_view (t : t) (env : Message.envelope) ~v ~start_o ~anchor ~new_back_log =
  if v >= t.x.target_view || v > t.x.view then begin
    t.x.view <- v;
    t.x.changing_view <- false;
    t.x.target_view <- v;
    Pair.cancel t.x.nv_watch;
    t.x.nv_watch <- None;
    let rank = candidate_of_view t v in
    let st =
      Pair.install t env ~era:v ~start_o ~anchor ~new_back_log
        ~primary:(Int.equal (id t) (Config.primary_of_pair t.config rank) && t.x.status = Up)
        ~shadow:(Int.equal (id t) (Config.shadow_of_pair t.config rank))
    in
    Recovery.close_span t.log Context.View_change_phase;
    Recovery.close_span t.log Context.Failover_phase;
    t.ctx.Context.emit (Context.View_installed { v });
    Pair.send_ack t st;
    Pair.try_commit t st;
    List.iter (fun (src, env) -> on_message t ~src env) (Pair.take_stash t)
  end

(* --------------------------------------------------- heartbeat/recovery *)

and arm_heartbeat (t : t) = Pair.arm_heartbeat t (heartbeat_tick t)

and heartbeat_tick (t : t) rank cp =
  if t.x.status <> Permanently_down then begin
    let timely = Pair.beat t ~rank ~cp in
    match t.x.status with
    | Up -> ignore (Pair.keep_beating t ~timely)
    | Down ->
      (* Continued mutual checking: hearing from the counterpart again in a
         timely way means the bad period has passed (assumption 3(b)(i)) —
         resume working as a pair. *)
      if timely then begin
        t.x.status <- Up;
        t.fail_signalled <- false;
        t.hb_level <- 0;
        t.ctx.Context.emit
          (Context.Pair_recovered { pair = Option.value t.pair_rank ~default:0 })
      end
    | Permanently_down -> ()
  end;
  if t.x.status <> Permanently_down then arm_heartbeat t

(* -------------------------------------------------------------- inbound *)

and on_message (t : t) ~src (env : Message.envelope) =
  Pair.note_heard t ~src;
  match env.Message.body with
  | Message.Fail_signal { pair } ->
    let key = (pair, env.Message.sender, t.x.view) in
    if
      pair >= 1
      && pair <= Config.pair_count t.config
      && (not (Hashtbl.mem t.x.echoed_fail_signals key))
      && Pair.fail_signal_authentic t ~pair env
    then begin
      Hashtbl.replace t.x.echoed_fail_signals key ();
      (* Echo once to the first signatory (not to ourselves). *)
      if not (Int.equal env.Message.sender (id t)) then Pair.send t ~dst:env.Message.sender env;
      (* A member that has not signalled joins its counterpart's signal. *)
      (match t.pair_rank with
      | Some r when Int.equal r pair && t.x.status = Up ->
        Pair.emit_fail_signal t ~value_domain:false
      | Some _ | None -> ());
      note_pair_failed t pair
    end
  | Message.View_change { v; max_committed; uncommitted; _ } ->
    if v > t.x.view && Context.authentic t.ctx env then begin
      store_view_change t ~src:env.Message.sender ~v (max_committed, uncommitted);
      (* Seeing f+1 view changes means at least one correct process saw the
         coordinator's fail-signal: join. *)
      if
        List.length (Pair.reports t ~era:v) > t.config.Config.f
        && (v > t.x.target_view || not t.x.changing_view)
      then propose_view_change t v
    end
  | Message.New_view { v; start_o; anchor; new_back_log } ->
    if
      (v > t.x.view || (t.x.changing_view && Int.equal v t.x.target_view))
      && Context.authentic t.ctx env
    then begin
      let rank = candidate_of_view t v in
      if env.Message.endorsement = None then begin
        if
          Int.equal (id t) (Config.shadow_of_pair t.config rank)
          && Int.equal env.Message.sender (Config.primary_of_pair t.config rank)
          && t.x.status = Up
        then
          Pair.judge_proposal t env ~era:v ~start_o ~anchor ~new_back_log
            ~install:(fun endorsed -> install_view t endorsed ~v ~start_o ~anchor ~new_back_log)
      end
      else if Pair.doubly_signed_by_pair t ~rank env then begin
        if
          Int.equal (id t) (Config.primary_of_pair t.config rank)
          && Int.equal env.Message.sender (id t)
          && not (Int.equal src (id t))
        then Pair.multicast t ~dsts:(Pair.others t) env;
        install_view t env ~v ~start_o ~anchor ~new_back_log
      end
    end
  | Message.Unwilling { v; pair } ->
    if
      (v > t.x.view || (t.x.changing_view && v >= t.x.target_view))
      && Int.equal pair (candidate_of_view t v)
      && List.mem env.Message.sender (Config.candidate_members t.config pair)
      && Context.authentic t.ctx env
    then begin
      (* Echo back to both members, then move on to the next view. *)
      List.iter
        (fun m -> if not (Int.equal m (id t)) then Pair.send t ~dst:m env)
        (Config.candidate_members t.config pair);
      propose_view_change t (v + 1)
    end
  | Message.Heartbeat _ | Message.Order _ | Message.Ack _ | Message.Checkpoint _
  | Message.State_request _ | Message.State_response _ | Message.Probe _
  | Message.Probe_reply _ ->
    Pair.on_message t ~src env
  | Message.Back_log _ | Message.Start _ | Message.Start_ack _
  | Message.Start_tuples _ | Message.Pre_prepare _ | Message.Prepare _
  | Message.Commit _ | Message.Bft_view_change _ | Message.Bft_new_view _ ->
    ()

(* ------------------------------------------------------------- requests *)

let on_request = Pair.on_request

let start t = Pair.start t ~arm_heartbeat:(fun () -> arm_heartbeat t)

let hooks =
  {
    Pair.era = view;
    rank_of = candidate_of_view;
    settled = (fun t -> not t.x.changing_view);
    up = (fun t -> t.x.status = Up);
    am_primary = i_am_coordinator_primary;
    am_shadow = i_am_coordinator_shadow;
    transmit = (fun _ -> true);
    quorum;
    endorses_checkpoints = (fun t -> t.x.status = Up);
    down =
      (fun t ~value_domain ->
        t.x.status <- (if value_domain then Permanently_down else Down));
    pair_failed = note_pair_failed;
  }

let create ~ctx ~service ~config ?(fault = Fault.Honest) ?counterpart_fail_signal () =
  if config.Config.kind <> Config.Scr_protocol then
    raise (Config.Invalid_config "Scr.create: config must be of kind Scr_protocol");
  Pair.create ~name:"Scr" ~ctx ~service ~config ~fault ~counterpart_fail_signal ~hooks
    {
      view = 1;
      changing_view = false;
      target_view = 1;
      status = Up;
      new_view_sent = false;
      nv_watch = None;
      echoed_fail_signals = Hashtbl.create 8;
    }
