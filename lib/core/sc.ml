module Request = Sof_smr.Request
module Key_map = Request.Key_map
module Int_set = Set.Make (Int)

type backlog_rec = {
  bl_failed_pair : int;
  bl_max_committed : int;
  bl_committed_digest : string;
  bl_proof_c : int;
  bl_proof : (int * string) list;
  bl_stable : Checkpoint.cert option;
  bl_uncommitted : Message.order_info list;
}

(* SC's own state: the sequential install part's coordinator tracking. *)
type install = {
  mutable coord : int;
  mutable failed_pairs : Int_set.t;
  mutable dumbed_pairs : Int_set.t;
  mutable installing : bool;
  mutable pair_active : bool;
  backlogs_by_c : (int, (int * backlog_rec) list ref) Hashtbl.t;
  mutable start_env : Message.envelope option;
  mutable start_acks : (int * string) list;
  mutable have_tuples : bool;
  mutable sent_tuples : bool;
  mutable start_sent : bool;
  (* trace spans open at this process for fail-over accounting *)
  mutable failover_span : int option;
  mutable install_span : int option;
}

type t = install Pair.t

(* ------------------------------------------------------------ accessors *)

let id = Pair.id
let coordinator_rank (t : t) = t.x.coord
let is_installing (t : t) = t.x.installing
let has_fail_signalled (t : t) = t.fail_signalled
let pending_requests (t : t) = Key_map.cardinal t.log.pending

let live_f (t : t) = t.config.Config.f - Int_set.cardinal t.x.dumbed_pairs

let quorum (t : t) =
  Config.process_count t.config - t.config.Config.f - Int_set.cardinal t.x.dumbed_pairs

let dumb_ids (t : t) =
  Int_set.fold
    (fun r acc ->
      List.fold_left (fun acc m -> Int_set.add m acc) acc (Config.candidate_members t.config r))
    t.x.dumbed_pairs Int_set.empty

let is_dumb t = Int_set.mem (id t) (dumb_ids t)

let i_am_coordinator_primary (t : t) =
  (not t.x.installing) && Int.equal (id t) (Config.primary_of_pair t.config t.x.coord)

let i_am_coordinator_shadow (t : t) =
  (not t.x.installing)
  && Config.candidate_is_pair t.config t.x.coord
  && Int.equal (id t) (Config.shadow_of_pair t.config t.x.coord)

(* ------------------------------------------------- checkpointing (SC) *)
(* Pair-endorsed (see Pair); SC's unpaired last candidate certifies with
   its single signature. *)

let kernel (t : t) = Recovery.Kernel t.recovery

(* ---------------------------------------------------- pair fail-signals *)

let rec note_pair_failed (t : t) rank =
  if not (Int_set.mem rank t.x.failed_pairs) then begin
    t.x.failed_pairs <- Int_set.add rank t.x.failed_pairs;
    t.ctx.Context.emit (Context.Fail_signal_observed { pair = rank });
    (* Member of the pair that hasn't signalled yet: join in (the paper's
       rule that receiving the counterpart's fail-signal makes you emit
       yours). *)
    (match t.pair_rank with
    | Some r when Int.equal r rank && not t.fail_signalled ->
      Pair.emit_fail_signal t ~value_domain:false
    | Some _ | None -> ());
    if Int.equal rank t.x.coord then begin
      if t.x.failover_span = None then begin
        t.x.failover_span <- Some rank;
        Pair.span_open t Context.Failover_phase rank
      end;
      begin_install t
    end
  end

(* ----------------------------------------------------------- install *)

and begin_install (t : t) =
  let rec next_candidate r =
    if r > Config.candidate_count t.config then r (* exhausted: f faults already *)
    else if Int_set.mem r t.x.failed_pairs then next_candidate (r + 1)
    else r
  in
  let failed = t.x.coord in
  t.x.coord <- next_candidate (t.x.coord + 1);
  (match t.x.install_span with
  | Some r -> Pair.span_close t Context.Install_phase r
  | None -> ());
  t.x.install_span <- Some t.x.coord;
  Pair.span_open t Context.Install_phase t.x.coord;
  t.x.installing <- true;
  t.x.start_env <- None;
  t.x.start_acks <- [];
  t.x.have_tuples <- false;
  t.x.sent_tuples <- false;
  t.x.start_sent <- false;
  Pair.cancel t.watch_timer;
  t.watch_timer <- None;
  Pair.cancel t.batch_timer;
  t.batch_timer <- None;
  (* Messages stashed for this epoch (e.g. backlogs that raced ahead of the
     fail-signal) become processable now. *)
  let stash = Pair.take_stash t in
  (* IN1: multicast BackLog.  The watermark this process can PROVE to the
     new coordinator: its ack proof when it survived, else its stable
     checkpoint certificate (the durable proof a crash-restarted replica
     still holds).  Orders known above that provable point are listed even
     if locally committed — a replica that remembers a commit whose proof
     died with a crash must re-offer it, or the install would null-fill
     the sequence and diverge from the delivered history. *)
  let stable = Option.map fst (Recovery.latest_stable t.log.rcv) in
  let provable =
    if t.committed_proof <> [] then t.log.max_committed
    else match stable with Some c -> c.Checkpoint.cp_seq | None -> 0
  in
  let uncommitted =
    Hashtbl.fold
      (fun o (st : Pair.slot) acc ->
        if st.have_order && o > provable then
          { Message.o; digest = st.digest; keys = st.keys } :: acc
        else acc)
      t.log.orders []
    |> List.sort (fun a b -> Int.compare a.Message.o b.Message.o)
  in
  let body =
    Message.Back_log
      {
        c = t.x.coord;
        failed_pair = failed;
        max_committed = t.log.max_committed;
        committed_digest = t.committed_digest;
        proof_c = t.committed_era;
        proof = t.committed_proof;
        stable;
        uncommitted;
      }
  in
  Pair.multicast t ~dsts:(Pair.others t) (Context.make_signed t.ctx body);
  store_backlog t ~src:(id t)
    {
      bl_failed_pair = failed;
      bl_max_committed = t.log.max_committed;
      bl_committed_digest = t.committed_digest;
      bl_proof_c = t.committed_era;
      bl_proof = t.committed_proof;
      bl_stable = stable;
      bl_uncommitted = uncommitted;
    };
  List.iter (fun (src, env) -> on_message t ~src env) stash

and store_backlog (t : t) ~src rec_ =
  let cell =
    match Hashtbl.find_opt t.x.backlogs_by_c t.x.coord with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.replace t.x.backlogs_by_c t.x.coord cell;
      cell
  in
  if not (List.mem_assoc src !cell) then begin
    cell := (src, rec_) :: !cell;
    maybe_send_start t
  end

(* IN2 at the new coordinator primary: compute NewBackLog and Start. *)
and maybe_send_start (t : t) =
  let am_new_primary =
    t.x.installing && Int.equal (id t) (Config.primary_of_pair t.config t.x.coord)
  in
  if am_new_primary && not t.x.start_sent then begin
    match Hashtbl.find_opt t.x.backlogs_by_c t.x.coord with
    | Some cell when List.length !cell >= quorum t ->
      t.x.start_sent <- true;
      let start_o, anchor, new_back_log =
        Pair.new_back_log t
          (List.map (fun (_, b) -> (b.bl_max_committed, b.bl_uncommitted)) !cell)
      in
      let body = Message.Start { c = t.x.coord; start_o; anchor; new_back_log } in
      let env = Context.make_signed t.ctx body in
      if Config.candidate_is_pair t.config t.x.coord then
        (* 1-signed to the shadow for endorsement. *)
        Pair.send t ~dst:(Config.shadow_of_pair t.config t.x.coord) env
      else begin
        (* The unpaired last candidate multicasts directly. *)
        Pair.multicast t ~dsts:(Pair.others t) env;
        handle_start t env ~c:t.x.coord
      end
    | Some _ | None -> ()
  end

(* Shadow of the new coordinator: verify the primary's Start against the
   backlogs received directly (the paper's p'c verification), endorse and
   multicast. *)
and handle_start_proposal (t : t) (env : Message.envelope) ~start_o ~anchor ~new_back_log =
  let reports =
    match Hashtbl.find_opt t.x.backlogs_by_c t.x.coord with
    | Some cell -> List.map (fun (_, b) -> b.bl_uncommitted) !cell
    | None -> []
  in
  if Pair.plausible t ~start_o ~anchor ~new_back_log ~reports then begin
    let endorsed = Context.endorse t.ctx env in
    Pair.multicast t ~dsts:(Pair.others t) endorsed;
    (* Only reachable under the dispatch guard [c = t.x.coord]. *)
    handle_start t endorsed ~c:t.x.coord
  end
  else Pair.emit_fail_signal t ~value_domain:true

and handle_start (t : t) (env : Message.envelope) ~c =
  if Int.equal c t.x.coord && t.x.installing && Option.is_none t.x.start_env then begin
    t.x.start_env <- Some env;
    (* IN3: sign the Start and send the identifier-signature tuple to the
       new coordinator (skipped when f-effective is 1). *)
    let members = Config.candidate_members t.config c in
    if live_f t > 1 && not (List.mem (id t) members) then begin
      let start_digest = start_digest_of t env in
      let ack = Context.make_signed t.ctx (Message.Start_ack { c; start_digest }) in
      List.iter (fun m -> Pair.send t ~dst:m ack) members
    end;
    try_finish_install t
  end

and start_digest_of (t : t) (env : Message.envelope) =
  let payload = env.Message.body_bytes in
  t.ctx.Context.digest_charge (String.length payload);
  Sof_crypto.Digest_alg.digest t.config.Config.digest payload

and handle_start_ack (t : t) (env : Message.envelope) ~c ~start_digest =
  let members = Config.candidate_members t.config c in
  if
    t.x.installing && Int.equal c t.x.coord
    && List.mem (id t) members
    && (not (List.mem env.Message.sender members))
    && not (List.mem_assoc env.Message.sender t.x.start_acks)
  then begin
    (* Only count tuples that match our own Start. *)
    let matches =
      match t.x.start_env with
      | Some start -> String.equal (start_digest_of t start) start_digest
      | None -> false
    in
    if matches then begin
      t.x.start_acks <- (env.Message.sender, env.Message.signature) :: t.x.start_acks;
      if List.length t.x.start_acks >= live_f t - 1 && not t.x.sent_tuples then begin
        t.x.sent_tuples <- true;
        let body = Message.Start_tuples { c; tuples = t.x.start_acks } in
        Pair.multicast t ~dsts:(Pair.others t) (Context.make_signed t.ctx body);
        t.x.have_tuples <- true;
        try_finish_install t
      end
    end
  end

and handle_start_tuples (t : t) ~c ~tuples =
  if t.x.installing && Int.equal c t.x.coord && not t.x.have_tuples then begin
    match t.x.start_env with
    | None -> () (* Start not here yet; tuples will be re-derived from stash *)
    | Some start ->
      let start_digest = start_digest_of t start in
      let body_bytes = Message.encode_body (Message.Start_ack { c; start_digest }) in
      let members = Config.candidate_members t.config c in
      let valid =
        List.filter
          (fun (signer, signature) ->
            (not (List.mem signer members))
            && t.ctx.Context.verify ~signer ~msg:body_bytes ~signature)
          tuples
      in
      let distinct = List.sort_uniq Int.compare (List.map fst valid) in
      if List.length distinct >= live_f t - 1 then begin
        t.x.have_tuples <- true;
        try_finish_install t
      end
  end

and try_finish_install (t : t) =
  if t.x.installing then begin
    (* [t.x.start_env] only ever stores a Start (handle_start is the sole
       writer), so destructuring here keeps finish_install total. *)
    match t.x.start_env with
    | Some
        ({ Message.body = Message.Start { c; start_o; anchor; new_back_log }; _ } as start_env)
      when live_f t <= 1 || t.x.have_tuples ->
      finish_install t start_env ~c ~start_o ~anchor ~new_back_log
    | Some _ | None -> ()
  end

and finish_install (t : t) start_env ~c ~start_o ~anchor ~new_back_log =
  t.x.installing <- false;
  (* First optimisation (Section 4.3): every passed-over pair turns dumb;
     n shrinks by 2 and f by 1 per pair. *)
  if t.config.Config.dumb_optimization then
    t.x.dumbed_pairs <- Int_set.filter (fun r -> r < t.x.coord) t.x.failed_pairs;
  (* Adopt the NewBackLog; the Start itself is an order at start_o (step
     IN5). *)
  let st =
    Pair.install t start_env ~era:c ~start_o ~anchor ~new_back_log
      ~primary:
        (Int.equal (id t) (Config.primary_of_pair t.config t.x.coord) && not (is_dumb t))
      ~shadow:
        (Config.candidate_is_pair t.config t.x.coord
        && Int.equal (id t) (Config.shadow_of_pair t.config t.x.coord))
  in
  (match t.x.install_span with
  | Some r ->
    t.x.install_span <- None;
    Pair.span_close t Context.Install_phase r
  | None -> ());
  (match t.x.failover_span with
  | Some r ->
    t.x.failover_span <- None;
    Pair.span_close t Context.Failover_phase r
  | None -> ());
  t.ctx.Context.emit (Context.Coordinator_installed { rank = t.x.coord });
  (* An anchor beyond our delivery point proves the cluster committed
     sequences we will never see retransmitted (the rememberers may have
     truncated them behind a stable checkpoint): catch up through state
     transfer rather than stalling delivery for the whole new era. *)
  if t.log.delivered < anchor then Recovery.request_recovery t.recovery;
  (* Ack the Start through the normal part. *)
  Pair.send_ack t st;
  Pair.try_commit t st;
  (* Replay messages that raced ahead of this install. *)
  List.iter (fun (src, env) -> on_message t ~src env) (Pair.take_stash t)

(* ------------------------------------------------------------ heartbeat *)

and arm_heartbeat (t : t) = if t.x.pair_active then Pair.arm_heartbeat t (heartbeat_tick t)

and heartbeat_tick (t : t) rank cp =
  if t.x.pair_active && Pair.keep_beating t ~timely:(Pair.beat t ~rank ~cp) then
    arm_heartbeat t

(* -------------------------------------------------------------- inbound *)

and on_message (t : t) ~src (env : Message.envelope) =
  Pair.note_heard t ~src;
  match env.Message.body with
  | Message.Fail_signal { pair } ->
    if
      pair >= 1
      && pair <= Config.pair_count t.config
      && (not (Int_set.mem pair t.x.failed_pairs))
      && Pair.fail_signal_authentic t ~pair env
    then begin
      (* Echo to the first signatory in case the second maliciously omitted
         it (Section 3.2). *)
      Pair.send t ~dst:env.Message.sender env;
      note_pair_failed t pair
    end
  | Message.Back_log
      { c; failed_pair; max_committed; committed_digest; proof_c; proof; stable; uncommitted }
    ->
    if Context.authentic t.ctx env then begin
      if Int.equal c t.x.coord && t.x.installing then begin
        let rec_ =
          {
            bl_failed_pair = failed_pair;
            bl_max_committed = max_committed;
            bl_committed_digest = committed_digest;
            bl_proof_c = proof_c;
            bl_proof = proof;
            bl_stable = stable;
            bl_uncommitted = uncommitted;
          }
        in
        store_backlog t ~src:env.Message.sender (validate_backlog t rec_)
      end
      else if c > t.x.coord then t.stash_future <- (src, env) :: t.stash_future
    end
  | Message.Start { c; start_o; anchor; new_back_log } ->
    if Context.authentic t.ctx env then begin
      if Int.equal c t.x.coord && t.x.installing then begin
        if env.Message.endorsement = None && Config.candidate_is_pair t.config c then begin
          (* 1-signed proposal: only the shadow of the new pair endorses. *)
          if
            Int.equal (id t) (Config.shadow_of_pair t.config c)
            && Int.equal env.Message.sender (Config.primary_of_pair t.config c)
          then handle_start_proposal t env ~start_o ~anchor ~new_back_log
        end
        else if Pair.valid_coordinator_message t ~rank:c env then begin
          (* The new primary also forwards the endorsed Start outward. *)
          if
            Int.equal (id t) (Config.primary_of_pair t.config c)
            && Int.equal env.Message.sender (id t)
            && not (Int.equal src (id t))
          then Pair.multicast t ~dsts:(Pair.others t) env;
          handle_start t env ~c
        end
      end
      else if c > t.x.coord then t.stash_future <- (src, env) :: t.stash_future
    end
  | Message.Start_ack { c; start_digest } ->
    if Context.authentic t.ctx env then handle_start_ack t env ~c ~start_digest
  | Message.Start_tuples { c; tuples } ->
    if Context.authentic t.ctx env then begin
      if Int.equal c t.x.coord && t.x.installing then handle_start_tuples t ~c ~tuples
      else if c > t.x.coord then t.stash_future <- (src, env) :: t.stash_future
    end
  | Message.Heartbeat _ | Message.Order _ | Message.Ack _ | Message.Checkpoint _
  | Message.State_request _ | Message.State_response _ | Message.Probe _
  | Message.Probe_reply _ ->
    Pair.on_message t ~src env
  | Message.View_change _ | Message.New_view _ | Message.Unwilling _
  | Message.Pre_prepare _ | Message.Prepare _ | Message.Commit _
  | Message.Bft_view_change _ | Message.Bft_new_view _ ->
    () (* other protocols' traffic: not ours *)

(* New-coordinator-side sanity check of a backlog's commitment proof: at
   least f+1 matching ack signatures — or, falling back, the sender's
   stable checkpoint certificate, which proves commitment through its
   sequence number even when the volatile ack proof died with a crash.
   An unprovable remainder is clamped off the claim; without the durable
   fallback a blackout restart would clamp every recovered claim to zero
   and let the anchor regress below delivered history.  Only pair-c
   members pay these verifications. *)
and validate_backlog (t : t) rec_ =
  let am_new_member = List.mem (id t) (Config.candidate_members t.config t.x.coord) in
  if (not am_new_member) || rec_.bl_max_committed = 0 then rec_
  else begin
    let body_bytes =
      Message.encode_body
        (Message.Ack
           { c = rec_.bl_proof_c; o = rec_.bl_max_committed; digest = rec_.bl_committed_digest })
    in
    let valid =
      List.filter
        (fun (signer, signature) -> t.ctx.Context.verify ~signer ~msg:body_bytes ~signature)
        rec_.bl_proof
      |> List.map fst |> List.sort_uniq Int.compare
    in
    if List.length valid >= t.config.Config.f + 1 then rec_
    else begin
      let cert_seq =
        match rec_.bl_stable with
        | Some c
          when Recovery.verify_cert
                 ~verify:(fun ~signer ~msg ~signature ->
                   t.ctx.Context.verify_acc ~signer ~msg ~signature)
                 ~scheme:t.recovery.scheme c ->
          c.Checkpoint.cp_seq
        | Some _ | None -> 0
      in
      {
        rec_ with
        bl_max_committed = min rec_.bl_max_committed cert_seq;
        bl_committed_digest = "";
        bl_proof = [];
      }
    end
  end

(* ------------------------------------------------------------- requests *)

let on_request (t : t) (req : Request.t) =
  let key = req.Request.key in
  if (not (Pair.on_request t req)) && not (Key_map.mem key t.log.pending) then
    (* Already ordered; keep the body so delivery can complete. *)
    t.log.pending <- Key_map.add key req t.log.pending

let start t = Pair.start t ~arm_heartbeat:(fun () -> arm_heartbeat t)

let hooks =
  {
    Pair.era = coordinator_rank;
    rank_of = (fun _ c -> c);
    settled = (fun t -> not t.x.installing);
    up = (fun t -> t.x.pair_active);
    am_primary = i_am_coordinator_primary;
    am_shadow = i_am_coordinator_shadow;
    transmit = (fun t -> not (is_dumb t));
    quorum;
    endorses_checkpoints = (fun _ -> true);
    down =
      (fun t ~value_domain:_ ->
        t.x.pair_active <- false;
        Pair.cancel t.heartbeat_timer;
        t.heartbeat_timer <- None);
    pair_failed = note_pair_failed;
  }

let create ~ctx ~config ?(fault = Fault.Honest) ?counterpart_fail_signal () =
  Pair.create ~name:"Sc" ~ctx ~config ~fault ~counterpart_fail_signal ~hooks
    {
      coord = 1;
      failed_pairs = Int_set.empty;
      dumbed_pairs = Int_set.empty;
      installing = false;
      pair_active = Option.is_some (Config.pair_rank_of config ctx.Context.id);
      backlogs_by_c = Hashtbl.create 4;
      start_env = None;
      start_acks = [];
      have_tuples = false;
      sent_tuples = false;
      start_sent = false;
      failover_span = None;
      install_span = None;
    }
