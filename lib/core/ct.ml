module Simtime = Sof_sim.Simtime
module Request = Sof_smr.Request
module Key_map = Request.Key_map
module Int_set = Set.Make (Int)

(* How long a request may stay unordered before the coordinator is
   suspected of having crashed. *)
let suspect_timeout = Simtime.ms 500

(* A candidate batch for one sequence number.  Under crash faults alone only
   one candidate per sequence number ever exists, but concurrent coordinators
   on the two sides of a network partition can propose different batches for
   the same sequence number.  Votes are therefore tallied per digest and a
   process casts at most one vote per sequence number; with quorum f+1 a
   majority of the 2f+1 processes, at most one digest can ever reach quorum. *)
type candidate = {
  mutable c_keys : Request.key list option;
      (* [None] until an Order carrying the batch contents is seen; acks may
         arrive first. *)
  mutable c_votes : Int_set.t;
}

type order_state = {
  o : int;
  candidates : (string, candidate) Hashtbl.t;
  mutable voted : bool;  (* this process already acked some digest for [o] *)
  mutable winner : string option;  (* committed digest *)
}

type t = {
  ctx : Context.t;
  config : Config.t;
  all_ids : int list;
  mutable epoch : int;  (* coordinator = epoch mod n *)
  log : order_state Recovery.log;
  timing : Timing.t;
  hooks : order_state Recovery.hooks;
  mutable batch_timer : Context.timer option;
  mutable last_progress : Simtime.t;  (* last local commit *)
  last_heard : Simtime.t array;  (* per peer, last message of any kind *)
  mutable sync_pending : bool;
      (* Set when this process rotates into coordinatorship: it must learn
         the candidates a quorum knows of before minting new sequence
         numbers, or it may spend votes on batches that collide with orders
         it has not yet seen. *)
  mutable sync_replies : Int_set.t;
  mutable last_probe : Simtime.t;
}

let id t = t.ctx.Context.id
let coordinator t = t.epoch mod Config.process_count t.config
let epoch t = t.epoch
let quorum t = t.config.f + 1
let i_am_coordinator t = Int.equal (id t) (coordinator t)
let others t = List.filter (fun p -> not (Int.equal p (id t))) t.all_ids

(* CT runs under the crash-only model with no cryptography: every envelope
   goes out unsigned. *)
let unsigned t body = Message.sign ~sender:(id t) ~sign:(fun _ -> "") body

(* A coordinator may mint new sequence numbers only while it has recent
   evidence that a quorum is reachable: an isolated coordinator that mints
   blindly casts votes for batches no quorum can ever confirm, and once every
   survivor has spent its one vote per sequence number on a different
   candidate, that sequence number is a permanent hole.  Epoch 0 is exempt
   (at most one process can ever mint blindly per partition side, and a
   single candidate can still gather a quorum after the heal).  The window
   is the estimate of the round trip to the coordinator, widened to at
   least the fixed timeout so adaptive mode never shrinks a window whose
   shrinking could stop the coordinator from minting. *)
let quorum_contact t =
  t.epoch = 0
  ||
  let now = t.ctx.Context.now () in
  let window = Simtime.max suspect_timeout (Timing.estimate t.timing (coordinator t)) in
  let me = id t in
  let heard = ref 1 (* self *) in
  Array.iteri
    (fun p at ->
      if
        not (Int.equal p me)
        && Simtime.compare at Simtime.zero > 0
        && Simtime.compare (Simtime.add at window) now >= 0
      then incr heard)
    t.last_heard;
  !heard >= quorum t

let get_order t o =
  match Hashtbl.find_opt t.log.orders o with
  | Some st -> st
  | None ->
    let st =
      {
        o;
        candidates = Hashtbl.create 2;
        voted = false;
        winner = None;
      }
    in
    Hashtbl.replace t.log.orders o st;
    st

let get_candidate st digest =
  match Hashtbl.find_opt st.candidates digest with
  | Some c -> c
  | None ->
    let c = { c_keys = None; c_votes = Int_set.empty } in
    Hashtbl.replace st.candidates digest c;
    c

(* ------------------------------------------------- checkpointing (CT) *)
(* Crash-only trust model: a checkpoint claim needs no signature, and f+1
   distinct claimants for the same (seq, digest) always include a correct
   process — the Quorum_counted scheme. *)

let ckpt_scheme (config : Config.t) =
  Recovery.Quorum_counted
    { quorum = config.f + 1; member_ok = (fun p -> p >= 0 && p < Config.process_count config) }

let try_commit t st =
  if st.winner = None then begin
    Hashtbl.iter
      (fun digest cand ->
        if
          st.winner = None
          && cand.c_keys <> None
          && Int_set.cardinal cand.c_votes >= quorum t
        then begin
          st.winner <- Some digest;
          Recovery.close_batch_spans t.log st.o;
          t.last_progress <- t.ctx.Context.now ();
          Timing.trusted t.timing;
          if st.o > t.log.max_committed then t.log.max_committed <- st.o;
          let keys = Option.value cand.c_keys ~default:[] in
          List.iter (Recovery.note_ordered t.log) keys;
          t.ctx.Context.emit (Context.Committed { seq = st.o; digest; keys })
        end)
      st.candidates;
    if st.winner <> None then Recovery.advance t.hooks
  end

let vote t st digest cand =
  if not st.voted then begin
    st.voted <- true;
    Recovery.span_close t.log Context.Order_phase st.o;
    Recovery.span_open t.log Context.Ack_phase st.o;
    cand.c_votes <- Int_set.add (id t) cand.c_votes;
    let body = Message.Ack { c = t.epoch; o = st.o; digest } in
    t.ctx.Context.multicast ~dsts:t.all_ids (unsigned t body)
  end

(* Record a candidate batch and cast this process's one vote per sequence
   number for the first candidate seen, marking its keys so this process does
   not rebatch them if it later coordinates. *)
let learn_candidate t (info : Message.order_info) =
  let st = get_order t info.Message.o in
  let cand = get_candidate st info.Message.digest in
  if st.winner = None then begin
    Recovery.span_open t.log Context.Batch_phase st.o;
    if not st.voted then Recovery.span_open t.log Context.Order_phase st.o
  end;
  if cand.c_keys = None then cand.c_keys <- Some info.Message.keys;
  if not st.voted then
    List.iter (Recovery.note_ordered t.log) info.Message.keys;
  vote t st info.Message.digest cand;
  (st, cand)

let accept_order t ~sender ~(info : Message.order_info) =
  let st, cand = learn_candidate t info in
  cand.c_votes <- Int_set.add sender cand.c_votes;
  try_commit t st

(* Coordinator sync (crash fail-over under partitions): a probe announces the
   prober's epoch and delivery low-water mark; peers answer with every
   candidate order they know of at or above that mark (see the Heartbeat and
   View_change cases of [on_message]).  A freshly rotated coordinator mints
   nothing until a quorum has answered, so it cannot collide with orders
   minted on the other side of a partition it just left. *)
let probe t =
  t.last_probe <- t.ctx.Context.now ();
  t.ctx.Context.multicast ~dsts:(others t)
    (unsigned t (Message.Heartbeat { pair = t.epoch; beat = t.log.delivered + 1 }))

let rec arm_batch_timer t =
  let h =
    t.ctx.Context.set_timer ~delay:t.config.batching_interval (fun () -> batch_tick t)
  in
  t.batch_timer <- Some h

and batch_tick t =
  if i_am_coordinator t then begin
    let pool = Recovery.unordered t.log in
    if not (Key_map.is_empty pool) then
      if t.sync_pending || not (quorum_contact t) then begin
        (* Probe instead of minting; peers answer with their candidate
           backlog, so minting resumes once the network heals even when no
           other traffic would refresh the contact evidence. *)
        let now = t.ctx.Context.now () in
        if
          Simtime.compare (Simtime.add t.last_probe suspect_timeout) now
          <= 0
        then probe t
      end
      else begin
        (* Never mint at a sequence number that already carries a candidate
           or a recorded vote.  After a heal, orders minted blindly by the
           epoch-0 coordinator on the far side of a partition can occupy
           numbers this coordinator has not reached yet; once this process
           has voted for such a candidate, minting a second candidate there
           would let its implicit order-sender vote count for a different
           digest in other processes' tallies, and two digests could each
           reach the f+1 quorum (seed-5 agreement break).  Skipped holes are
           harmless: the existing candidate either commits or its requests
           are rebatched under a fresh number. *)
        while Hashtbl.mem t.log.orders t.log.next_seq do
          t.log.next_seq <- t.log.next_seq + 1
        done;
        let info =
          Recovery.mint t.hooks (Batch.take_from_pool ~limit:t.config.batch_size_limit ~pool)
        in
        t.ctx.Context.multicast ~dsts:(others t) (unsigned t (Message.Order { c = t.epoch; info }));
        accept_order t ~sender:(id t) ~info
      end;
    arm_batch_timer t
  end

(* Crash fail-over: rotate the coordinator when a request has been waiting
   longer than the batching interval plus the suspicion timeout. *)
let rotate t =
  let now = t.ctx.Context.now () in
  t.last_progress <- now;
  Timing.suspected t.timing;
  t.epoch <- t.epoch + 1;
  (* Refresh arrivals so the next coordinator gets a full grace period. *)
  t.log.arrival <- Key_map.map (fun _ -> now) t.log.arrival;
  if i_am_coordinator t then begin
    (* Sync with a quorum before minting anything; [next_seq] is
       recomputed when the sync completes. *)
    t.sync_pending <- true;
    t.sync_replies <- Int_set.singleton (id t);
    probe t;
    arm_batch_timer t
  end

let on_request t req = Recovery.on_request t.hooks req

let on_message t ~src (env : Message.envelope) =
  if src >= 0 && src < Array.length t.last_heard then
    t.last_heard.(src) <- t.ctx.Context.now ();
  match env.Message.body with
  | Message.Order { c; info } ->
    (* Accept orders from the legitimate coordinator of the order's own
       epoch, whatever this process's current epoch: after a partition heals,
       a process that rotated while isolated must still be able to learn the
       orders it missed (the retransmission channel redelivers them carrying
       their original epoch).  Vote-once per sequence number keeps commits
       unique even when concurrent coordinators proposed conflicting
       batches. *)
    if
      Int.equal env.Message.sender (c mod Config.process_count t.config)
      && info.Message.o > Recovery.stable_seq t.log.rcv
    then begin
      if c > t.epoch then t.epoch <- c;
      accept_order t ~sender:env.Message.sender ~info
    end
  | Message.Ack { o; digest; _ } ->
    (* Tally the vote under its digest; the order contents may arrive later
       (the commit waits until some quorum'd digest also has its keys).
       Sequence numbers at or below the stable checkpoint are settled and
       truncated — a straggler must not resurrect them in the log. *)
    if o > Recovery.stable_seq t.log.rcv then begin
      let st = get_order t o in
      let cand = get_candidate st digest in
      cand.c_votes <- Int_set.add env.Message.sender cand.c_votes;
      try_commit t st
    end
  | Message.Heartbeat { pair = e; beat } ->
    (* CT repurposes the heartbeat as a coordinator probe: [pair] carries the
       prober's epoch, [beat - 1] its delivered sequence number (heartbeats
       only flow between the paired processes of SC/SCR, so every heartbeat a
       CT process receives is a probe).  Adopting a legitimately probed
       higher epoch makes a stale coordinator stand down before the prober
       ever mints; the View_change reply hands the prober every candidate it
       might otherwise collide with. *)
    if Int.equal env.Message.sender (e mod Config.process_count t.config) then begin
      if e > t.epoch then t.epoch <- e;
      let low = beat in
      let uncommitted =
        Hashtbl.fold
          (fun o st acc ->
            if o < low then acc
            else
              Hashtbl.fold
                (fun digest cand acc ->
                  match cand.c_keys with
                  | Some keys -> { Message.o; digest; keys } :: acc
                  | None -> acc)
                st.candidates acc)
          t.log.orders []
      in
      t.ctx.Context.send ~dst:src
        (unsigned t
           (Message.View_change
              { v = e; max_committed = t.log.max_committed; committed_digest = ""; uncommitted }))
    end
  | Message.View_change { v; uncommitted; _ } ->
    (* Reply to a probe this process sent: learn (and vote for) the relayed
       candidates, and once a quorum has answered the current epoch, start
       minting above everything now known. *)
    let uncommitted =
      List.filter (fun info -> info.Message.o > Recovery.stable_seq t.log.rcv) uncommitted
    in
    List.iter (fun info -> ignore (learn_candidate t info)) uncommitted;
    List.iter (fun info -> try_commit t (get_order t info.Message.o)) uncommitted;
    if t.sync_pending && Int.equal v t.epoch && i_am_coordinator t then begin
      t.sync_replies <- Int_set.add env.Message.sender t.sync_replies;
      if Int_set.cardinal t.sync_replies >= quorum t then begin
        t.sync_pending <- false;
        t.log.next_seq <-
          1 + Hashtbl.fold (fun o _ acc -> max o acc) t.log.orders t.log.max_committed
      end
    end
  | Message.Checkpoint { seq; digest } ->
    if
      t.config.checkpoint_interval > 0
      && env.Message.sender >= 0
      && env.Message.sender < Config.process_count t.config
      && seq > Recovery.stable_seq t.log.rcv
    then
      Recovery.checkpoint_vote t.hooks ~quorum:(quorum t) ~seq ~digest ~signer:env.Message.sender
        ~signature:""
  | Message.State_request { have } -> Recovery.serve_state_request t.hooks ~src ~have
  | Message.State_response { cert; image; entries } ->
    Recovery.handle_state_response t.hooks ~src ~cert ~image ~entries
  | Message.Probe { nonce; at } -> Recovery.answer_probe t.hooks ~src ~nonce ~at
  | Message.Probe_reply { nonce; at } -> Recovery.note_probe_reply t.hooks ~src ~nonce ~at
  | Message.Fail_signal _ | Message.Back_log _
  | Message.Start _ | Message.Start_ack _ | Message.Start_tuples _
  | Message.New_view _ | Message.Unwilling _
  | Message.Pre_prepare _ | Message.Prepare _ | Message.Commit _
  | Message.Bft_view_change _ | Message.Bft_new_view _ ->
    ()

let start t =
  if i_am_coordinator t then arm_batch_timer t;
  Recovery.watch_leader t.hooks ~batching:t.config.batching_interval
    ~leader:(fun () -> coordinator t)
    ~since:(fun () -> t.last_progress)
    ~accuse:(fun () -> rotate t)

let kernel t = Recovery.Kernel t.hooks

let create ~ctx ~service ~(config : Config.t) =
  let n = Config.process_count config in
  let timing = Timing.create ~mode:config.timing ~initial:suspect_timeout ~peers:n in
  let log =
    Recovery.create_log ~ctx ~service ~f:config.f ~digest:config.digest
      ~interval:config.checkpoint_interval
  in
  let rec t =
    {
      ctx;
      config;
      all_ids = Config.all_processes config;
      epoch = 0;
      log;
      timing;
      hooks =
        {
          Recovery.log;
          timing;
          scheme = ckpt_scheme config;
          entry_quorum = 1;
          fault = Fault.Honest;
          retry_base = (fun () -> suspect_timeout);
          committed_keys =
            (fun st ->
              (* The winner digest always has a recorded candidate (votes are
                 only tallied against existing candidates); should that
                 invariant ever break, stall delivery instead of crashing. *)
              match st.winner with
              | Some digest ->
                Option.map
                  (fun cand -> Option.value cand.c_keys ~default:[])
                  (Hashtbl.find_opt st.candidates digest)
              | None -> None);
          keep_executed = false;
          settle_fresh_only = true;
          boundary = (fun o -> Recovery.quorum_boundary t.hooks ~quorum:(config.f + 1) o);
          tail_entry =
            (fun o st ->
              (* Served with the committed digest as is: under crash faults
                 any single responder's entry is genuine. *)
              match st.winner with
              | None -> None
              | Some digest -> (
                match Hashtbl.find_opt st.candidates digest with
                | Some { c_keys = Some keys; _ } ->
                  let requests = List.filter_map (fun k -> Key_map.find_opt k log.pending) keys in
                  if Int.equal (List.length requests) (List.length keys) then
                    Some { Checkpoint.e_o = o; e_digest = digest; e_requests = requests }
                  else None
                | Some { c_keys = None; _ } | None -> None));
          admit =
            (fun e ->
              let st = get_order t e.Checkpoint.e_o in
              match st.winner with
              | Some _ -> false
              | None ->
                let cand = get_candidate st e.Checkpoint.e_digest in
                if cand.c_keys = None then
                  cand.c_keys <-
                    Some (List.map (fun (r : Request.t) -> r.Request.key) e.Checkpoint.e_requests);
                st.winner <- Some e.Checkpoint.e_digest;
                true);
          sign = (fun body -> unsigned t body);
          send = (fun ~dst env -> ctx.Context.send ~dst env);
          multicast = (fun env -> ctx.Context.multicast ~dsts:(others t) env);
        };
      batch_timer = None;
      last_progress = Simtime.zero;
      last_heard = Array.make n Simtime.zero;
      sync_pending = false;
      sync_replies = Int_set.empty;
      last_probe = Simtime.zero;
    }
  in
  t
