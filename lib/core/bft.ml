module Simtime = Sof_sim.Simtime
module Request = Sof_smr.Request
module Key_map = Request.Key_map
module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

(* How long a backup waits on a stalled primary before suspecting it. *)
let view_change_timeout = Simtime.sec 2

type order_state = {
  o : int;
  mutable digest : string;
  mutable keys : Request.key list;
  mutable pre_prepared : bool;  (* authentic pre-prepare stored *)
  mutable view_of : int;
  (* Votes are remembered per sender *together with the digest they were
     cast for*: a prepare or commit may legitimately overtake its
     pre-prepare on a reordering link, so votes must be accepted before the
     slot's digest is known — but they may only be *counted* toward the
     digest they name.  Pooling digest-blind votes lets a restarted primary
     combine the cluster's votes for an old in-flight batch with a fresh
     conflicting proposal for the same slot and commit it alone. *)
  mutable prepares : string Int_map.t;
  mutable commits : string Int_map.t;
  mutable sent_prepare : bool;
  mutable sent_commit : bool;
  mutable committed : bool;
}

type t = {
  ctx : Context.t;
  config : Config.t;
  fault : Fault.t;
  all_ids : int list;
  mutable view : int;
  log : order_state Recovery.log;
  timing : Timing.t;
  hooks : order_state Recovery.hooks;
  mutable batch_timer : Context.timer option;
  mutable last_progress : Simtime.t;
  mutable view_changes : (int, Int_set.t ref * Message.order_info list ref) Hashtbl.t;
  mutable changing_view : bool;
}

let id t = t.ctx.Context.id
let view t = t.view
let n t = Config.process_count t.config
let primary t = t.view mod n t
let i_am_primary t = Int.equal (id t) (primary t)

let others t = List.filter (fun p -> not (Int.equal p (id t))) t.all_ids

(* BFT never endorses: an envelope carrying an endorsement is not one of
   ours. *)
let authentic t (env : Message.envelope) =
  env.Message.endorsement = None && Context.authentic t.ctx env

let can_transmit t = not (Fault.is_mute t.fault ~now:(t.ctx.Context.now ()))

let multicast t ~dsts env = if can_transmit t then t.ctx.Context.multicast ~dsts env

let get_order t o =
  match Hashtbl.find_opt t.log.orders o with
  | Some st -> st
  | None ->
    let st =
      {
        o;
        digest = "";
        keys = [];
        pre_prepared = false;
        view_of = 0;
        prepares = Int_map.empty;
        commits = Int_map.empty;
        sent_prepare = false;
        sent_commit = false;
        committed = false;
      }
    in
    Hashtbl.replace t.log.orders o st;
    st

(* First vote per sender wins: a later conflicting vote from the same signer
   is equivocation and must not displace the one already on record. *)
let add_vote votes ~sender ~digest =
  if Int_map.mem sender votes then votes else Int_map.add sender digest votes

let votes_for ?(blind = false) votes ~digest =
  (* [blind] resurrects the pre-PR 7 pooling — votes counted regardless of
     the digest they were cast for.  Never set outside the model checker's
     mutant tests, where `sof check` must rediscover the safety violation
     the blackout campaign originally found. *)
  Int_map.fold
    (fun _ d acc -> if blind || String.equal d digest then acc + 1 else acc)
    votes 0

(* ------------------------------------------------ checkpointing (BFT) *)
(* PBFT-style stable checkpoints: every process signs and multicasts its
   state digest at each boundary; 2f+1 matching signatures certify it. *)

let ckpt_quorum (config : Config.t) = (2 * config.f) + 1

let ckpt_scheme config =
  Recovery.Quorum_signed
    { quorum = ckpt_quorum config; member_ok = (fun p -> p >= 0 && p < Config.process_count config) }

let try_commit_point t st =
  if
    st.pre_prepared && (not st.committed)
    && votes_for ~blind:t.config.unsafe_digest_blind_votes st.commits
         ~digest:st.digest
       >= (2 * t.config.f) + 1
  then begin
    Recovery.close_batch_spans t.log st.o;
    st.committed <- true;
    t.last_progress <- t.ctx.Context.now ();
    if st.o > t.log.max_committed then t.log.max_committed <- st.o;
    t.ctx.Context.emit
      (Context.Committed { seq = st.o; digest = st.digest; keys = st.keys });
    Recovery.advance t.hooks
  end

let try_prepared_point t st =
  if
    st.pre_prepared && st.sent_prepare && (not st.sent_commit)
    && votes_for ~blind:t.config.unsafe_digest_blind_votes st.prepares
         ~digest:st.digest
       >= 2 * t.config.f
  then begin
    st.sent_commit <- true;
    Recovery.span_close t.log Context.Prepare_phase st.o;
    Recovery.span_open t.log Context.Commit_phase st.o;
    let body = Message.Commit { v = st.view_of; o = st.o; digest = st.digest } in
    let env = Context.make_signed t.ctx body in
    multicast t ~dsts:t.all_ids env
  end

let send_prepare t st =
  if not st.sent_prepare then begin
    st.sent_prepare <- true;
    Recovery.span_close t.log Context.Pre_prepare_phase st.o;
    Recovery.span_open t.log Context.Prepare_phase st.o;
    let body = Message.Prepare { v = st.view_of; o = st.o; digest = st.digest } in
    let env = Context.make_signed t.ctx body in
    multicast t ~dsts:t.all_ids env
  end

let accept_pre_prepare t ~(info : Message.order_info) ~v =
  let st = get_order t info.Message.o in
  if st.pre_prepared && (st.view_of > v || not (String.equal st.digest info.Message.digest)) then ()
  else begin
    if not st.committed then Recovery.span_open t.log Context.Batch_phase st.o;
    if not st.sent_prepare then Recovery.span_open t.log Context.Pre_prepare_phase st.o;
    st.pre_prepared <- true;
    st.view_of <- v;
    st.digest <- info.Message.digest;
    st.keys <- info.Message.keys;
    List.iter (Recovery.note_ordered t.log) info.Message.keys;
    send_prepare t st;
    try_prepared_point t st;
    try_commit_point t st
  end

(* ----------------------------------------------------------- batching *)

let issue_pre_prepare t info =
  match t.fault with
  | Fault.Equivocate_at at when Int.equal at info.Message.o ->
    (* Equivocating primary: split the backups between two conflicting
       pre-prepare digests.  Neither half can assemble 2f matching prepares
       beyond the quorum-intersection bound, so agreement holds; progress at
       this sequence number waits for the view change. *)
    let alt = { info with Message.digest = Recovery.flip_first_byte info.Message.digest } in
    List.iteri
      (fun i dst ->
        let chosen = if i mod 2 = 0 then info else alt in
        multicast t ~dsts:[ dst ]
          (Context.make_signed t.ctx (Message.Pre_prepare { v = t.view; info = chosen })))
      (others t);
    accept_pre_prepare t ~info ~v:t.view
  | _ ->
    let body = Message.Pre_prepare { v = t.view; info } in
    let env = Context.make_signed t.ctx body in
    multicast t ~dsts:(others t) env;
    accept_pre_prepare t ~info ~v:t.view

let rec arm_batch_timer t =
  let h =
    t.ctx.Context.set_timer ~delay:t.config.batching_interval (fun () -> batch_tick t)
  in
  t.batch_timer <- Some h

and batch_tick t =
  if i_am_primary t && not t.changing_view then begin
    let pool = Recovery.unordered t.log in
    if not (Key_map.is_empty pool) then
      issue_pre_prepare t
        (Recovery.mint t.hooks
           (Batch.take_from_pool ~limit:t.config.batch_size_limit ~pool));
    arm_batch_timer t
  end

(* ---------------------------------------------------------- view change *)

let prepared_set t =
  Hashtbl.fold
    (fun o st acc ->
      if
        st.pre_prepared && (not st.committed) && o > t.log.max_committed
        && votes_for ~blind:t.config.unsafe_digest_blind_votes st.prepares
             ~digest:st.digest
           >= 2 * t.config.f
      then { Message.o; digest = st.digest; keys = st.keys } :: acc
      else acc)
    t.log.orders []
  |> List.sort (fun a b -> Int.compare a.Message.o b.Message.o)

let start_view_change t v =
  if v > t.view then begin
    Timing.suspected t.timing;
    Recovery.close_span t.log Context.View_change_phase;
    Recovery.open_span t.log Context.View_change_phase v;
    t.changing_view <- true;
    (match t.batch_timer with Some h -> h.Context.cancel () | None -> ());
    t.batch_timer <- None;
    let body =
      Message.Bft_view_change { v; prepared = prepared_set t }
    in
    let env = Context.make_signed t.ctx body in
    multicast t ~dsts:t.all_ids env
  end

let rec handle_view_change t ~src:_ ~v ~prepared (env : Message.envelope) =
  if v > t.view || (Int.equal v t.view && t.changing_view) then begin
    let voters, infos =
      match Hashtbl.find_opt t.view_changes v with
      | Some (voters, infos) -> (voters, infos)
      | None ->
        let cell = (ref Int_set.empty, ref []) in
        Hashtbl.replace t.view_changes v cell;
        cell
    in
    if not (Int_set.mem env.Message.sender !voters) then begin
      voters := Int_set.add env.Message.sender !voters;
      infos := prepared @ !infos;
      (* Join the view change once f+1 replicas vouch for it (a correct
         replica must be among them). *)
      if Int.equal (Int_set.cardinal !voters) (t.config.f + 1) && not t.changing_view then
        start_view_change t v;
      if Int_set.cardinal !voters >= (2 * t.config.f) + 1 && Int.equal (v mod n t) (id t) then begin
        (* New primary: re-issue pre-prepares for every prepared order. *)
        let by_o = Hashtbl.create 16 in
        List.iter
          (fun (info : Message.order_info) ->
            if info.Message.o > t.log.max_committed then
              Hashtbl.replace by_o info.Message.o info)
          !infos;
        let pre_prepares =
          Hashtbl.fold (fun _ info acc -> info :: acc) by_o []
          |> List.sort (fun a b -> Int.compare a.Message.o b.Message.o)
        in
        let body = Message.Bft_new_view { v; pre_prepares } in
        let env' = Context.make_signed t.ctx body in
        multicast t ~dsts:(others t) env';
        enter_view t v pre_prepares
      end
    end
  end

and enter_view t v pre_prepares =
  t.view <- v;
  t.changing_view <- false;
  Timing.trusted t.timing;
  Recovery.close_span t.log Context.View_change_phase;
  t.ctx.Context.emit (Context.View_installed { v });
  let top =
    List.fold_left
      (fun acc (i : Message.order_info) -> max acc i.Message.o)
      t.log.max_committed pre_prepares
  in
  let top = Hashtbl.fold (fun o _ acc -> max o acc) t.log.orders top in
  List.iter (fun (info : Message.order_info) -> accept_pre_prepare t ~info ~v) pre_prepares;
  if i_am_primary t then begin
    t.log.next_seq <- top + 1;
    arm_batch_timer t
  end;
  (* Give fresh grace to everything still pending. *)
  let now = t.ctx.Context.now () in
  t.log.arrival <- Key_map.map (fun _ -> now) t.log.arrival

let handle_new_view t ~v ~pre_prepares (env : Message.envelope) =
  if v >= t.view && Int.equal env.Message.sender (v mod n t) then enter_view t v pre_prepares

(* -------------------------------------------------------------- inbound *)

let on_request t req = Recovery.on_request t.hooks req

let on_message t ~src (env : Message.envelope) =
  ignore src;
  match env.Message.body with
  | Message.Pre_prepare { v; info } ->
    if Int.equal v t.view && (not t.changing_view) && Int.equal env.Message.sender (primary t)
       && info.Message.o > Recovery.stable_seq t.log.rcv
       && authentic t env
    then accept_pre_prepare t ~info ~v
  | Message.Prepare { v; o; digest } ->
    (* Sequence numbers at or below the stable checkpoint are settled and
       truncated — stragglers must not resurrect them in the log. *)
    if v <= t.view && o > Recovery.stable_seq t.log.rcv && authentic t env then begin
      let st = get_order t o in
      st.prepares <- add_vote st.prepares ~sender:env.Message.sender ~digest;
      try_prepared_point t st;
      try_commit_point t st
    end
  | Message.Commit { v; o; digest } ->
    if v <= t.view && o > Recovery.stable_seq t.log.rcv && authentic t env then begin
      let st = get_order t o in
      st.commits <- add_vote st.commits ~sender:env.Message.sender ~digest;
      try_commit_point t st
    end
  | Message.Bft_view_change { v; prepared } ->
    if authentic t env then handle_view_change t ~src ~v ~prepared env
  | Message.Bft_new_view { v; pre_prepares } ->
    if authentic t env then handle_new_view t ~v ~pre_prepares env
  | Message.Checkpoint { seq; digest } ->
    if
      t.config.checkpoint_interval > 0
      && seq > Recovery.stable_seq t.log.rcv
      && authentic t env
    then
      Recovery.checkpoint_vote t.hooks ~quorum:(ckpt_quorum t.config) ~seq ~digest
        ~signer:env.Message.sender ~signature:env.Message.signature
  | Message.State_request { have } ->
    if authentic t env then Recovery.serve_state_request t.hooks ~src ~have
  | Message.State_response { cert; image; entries } ->
    if authentic t env then Recovery.handle_state_response t.hooks ~src ~cert ~image ~entries
  | Message.Probe { nonce; at } -> Recovery.answer_probe t.hooks ~src ~nonce ~at
  | Message.Probe_reply { nonce; at } -> Recovery.note_probe_reply t.hooks ~src ~nonce ~at
  | Message.Order _ | Message.Ack _ | Message.Fail_signal _ | Message.Back_log _
  | Message.Start _ | Message.Start_ack _ | Message.Start_tuples _
  | Message.View_change _ | Message.New_view _ | Message.Unwilling _
  | Message.Heartbeat _ ->
    ()

let start t =
  if i_am_primary t then arm_batch_timer t;
  (* The stall budget a replica grants the current primary before
     suspecting it: static mode keeps the fixed view-change timeout;
     adaptive mode tracks the measured round-trip to the primary and
     doubles per consecutive suspicion, capped. *)
  Recovery.watch_leader t.hooks ~batching:t.config.batching_interval
    ~leader:(fun () -> primary t)
    ~since:(fun () -> t.last_progress)
    ~accuse:(fun () -> if not t.changing_view then start_view_change t (t.view + 1))

let kernel t = Recovery.Kernel t.hooks

let create ~ctx ~service ~(config : Config.t) ?(fault = Fault.Honest) () =
  let timing =
    Timing.create ~mode:config.timing ~initial:view_change_timeout
      ~peers:(Config.process_count config)
  in
  let log =
    Recovery.create_log ~ctx ~service ~f:config.f ~digest:config.digest
      ~interval:config.checkpoint_interval
  in
  let rec t =
    {
      ctx;
      config;
      fault;
      all_ids = Config.all_processes config;
      view = 0;
      log;
      timing;
      hooks =
        {
          Recovery.log;
          timing;
          scheme = ckpt_scheme config;
          entry_quorum = config.f + 1;
          fault;
          retry_base = (fun () -> view_change_timeout);
          committed_keys = (fun st -> if st.committed then Some st.keys else None);
          keep_executed = false;
          settle_fresh_only = false;
          boundary = (fun o -> Recovery.quorum_boundary t.hooks ~quorum:(ckpt_quorum config) o);
          tail_entry =
            (fun o st -> if st.committed then Recovery.batch_entry log ~o st.keys else None);
          admit =
            (fun e ->
              let st = get_order t e.Checkpoint.e_o in
              (not st.committed)
              && begin
                   st.digest <- e.Checkpoint.e_digest;
                   st.keys <-
                     List.map (fun (r : Request.t) -> r.Request.key) e.Checkpoint.e_requests;
                   st.pre_prepared <- true;
                   st.committed <- true;
                   true
                 end);
          sign = Context.make_signed ctx;
          send = (fun ~dst env -> if can_transmit t then ctx.Context.send ~dst env);
          multicast = (fun env -> multicast t ~dsts:(others t) env);
        };
      batch_timer = None;
      last_progress = Simtime.zero;
      view_changes = Hashtbl.create 4;
      changing_view = false;
    }
  in
  t
