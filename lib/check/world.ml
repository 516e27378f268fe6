module Simtime = Sof_sim.Simtime
module Scheme = Sof_crypto.Scheme
module Keyring = Sof_crypto.Keyring
module Request = Sof_smr.Request
module State_machine = Sof_smr.State_machine
module Kv_store = Sof_smr.Kv_store
module Rng = Sof_util.Rng
module P = Sof_protocol
module Invariants = Sof_harness.Invariants
module Replica = P.Replica

type message = { msg_id : int; src : int; dst : int; payload : string }

type timer_rec = {
  tid : int;
  owner : int;
  due : Simtime.t;
  kind : P.Context.timer_kind;
  callback : unit -> unit;
  mutable cancelled : bool;
}

(* Signatures by signer and signed bytes. *)
module Sigs = Hashtbl.Make (struct
  type t = int * string

  let equal (a, m) (b, n) = Int.equal a b && String.equal m n
  let hash = Hashtbl.hash
end)

(* The half of a world shared by every world of one model.  The checker
   signs with mock HMAC (CT with nothing), so no signature draws from the
   keyring's RNG, and the keyring's lazily keyed HMAC states are immutable
   values: a shared ring signs exactly as a fresh one.  [sigs], [images],
   [batches] and the stores [machine] makes, the mutable parts, memoise
   what the ring signs (see [sign]), the checkpoint images and batches the
   processes digest and the merges their stores make; all answer exactly,
   so sharing them changes no world. *)
type base = {
  spec : Model.spec;
  config : P.Config.t;
  n : int;
  keyring : Keyring.t;
  sigs : string Sigs.t;
  images : P.Checkpoint.Images.t;
  batches : P.Checkpoint.Images.t;
  machine : unit -> State_machine.t;
  requests : Request.t list;
  injected : Request.Key_set.t;
  byz : int list;
  honest : int list;
}

type t = {
  base : base;
  mutable procs : Replica.t array;
  mutable clock : Simtime.t;
  mutable pending : message list;  (* newest first; ids allocate in order *)
  mutable timers : timer_rec list;  (* newest first; fired records removed *)
  mutable next_msg : int;
  mutable next_tid : int;
  mutable crashes_used : int;
  mutable events_rev : (Simtime.t * int * P.Context.event) list;
  event_fps : Fingerprint.acc array;
      (* per process, the hash of its events so far, each encoded once as
         it is emitted *)
  delivered_log : (int * string) list array;
      (* per destination, every (src, payload) handed to its handler —
         newest first.  As a sorted multiset this pins down the hidden
         protocol state in the fingerprint: a deterministic process is a
         function of its inputs, and the near-commutative handlers (votes
         record first-wins per sender) make input *order* immaterial at
         fingerprint granularity. *)
}

let spec w = w.base.spec
let process_count w = w.base.n
let clock w = w.clock
let events w = List.rev w.events_rev
let pending w = List.rev_map (fun m -> (m.src, m.dst, m.payload)) w.pending
let crashed w i = Replica.crashed w.procs.(i)
let crashed_list w = List.filter (crashed w) (List.init w.base.n (fun i -> i))

(* The checker's network holds at most one in-flight copy of any identical
   (src, dst, payload) triple.  The protocols treat duplicate payloads
   idempotently (votes and orders are recorded first-wins per sender), so
   collapsing copies loses no distinct behaviour, and it is what keeps the
   state space finite under retransmission: CT's coordinator probe re-sends
   a byte-identical Order while acks are outstanding, which would otherwise
   grow the pending pool without bound.  Duplicate-delivery robustness under
   a genuinely duplicating network belongs to the Nemesis wire adversary. *)
let hand_over w ~src ~dst payload =
  w.delivered_log.(dst) <- (src, payload) :: w.delivered_log.(dst);
  match P.Message.decode payload with
  | env -> Replica.on_message w.procs.(dst) ~src env
  | exception Sof_util.Codec.Reader.Truncated -> ()

(* A process's message to itself is not network nondeterminism: no real
   schedule can reorder it against the sending step's own effects in any
   way the process could distinguish, so self-sends dispatch synchronously
   (the n-to-n vote multicasts all include the sender).  This halves the
   actions per vote round without removing any cross-process
   interleaving. *)
let enqueue w ~src ~dst payload =
  if dst >= 0 && dst < w.base.n then
    if Int.equal src dst && Array.length w.procs > dst then
      hand_over w ~src ~dst payload
    else
      let dup =
        List.exists
          (fun m ->
            Int.equal m.src src && Int.equal m.dst dst
            && String.equal m.payload payload)
          w.pending
      in
      if not dup then begin
        w.pending <- { msg_id = w.next_msg; src; dst; payload } :: w.pending;
        w.next_msg <- w.next_msg + 1
      end

(* Every world of a model replays the same steps, so it signs the same
   bytes again and again.  Mock HMAC is deterministic: the signature
   recorded for (signer, bytes) is the one [Keyring.sign] would compute
   again, and a triple whose signature is byte-equal to the recorded one
   is one [Keyring.verify] accepts.  Any other triple (forged, tampered or
   re-attributed) goes to the keyring.  Empty signatures (CT's) cost
   nothing and are not kept.  The memo is emptied when it reaches
   [sig_capacity] entries, as {!Sof_crypto.Issued} is: a dropped entry
   only costs one more [Keyring.sign].  The signed bytes grow with a
   model's batches, not with the schedules explored: two-batch bft at
   depth 12, the largest model measured, holds 13. *)
let sig_capacity = 8192

let sign base ~signer payload =
  let k = (signer, payload) in
  match Sigs.find_opt base.sigs k with
  | Some signature -> signature
  | None ->
    let signature = Keyring.sign base.keyring ~signer payload in
    if String.length signature > 0 then begin
      if Sigs.length base.sigs >= sig_capacity then Sigs.reset base.sigs;
      Sigs.replace base.sigs k signature
    end;
    signature

let verify base ~signer ~msg ~signature =
  (match Sigs.find_opt base.sigs (signer, msg) with
  | Some recorded -> String.equal recorded signature
  | None -> false)
  || Keyring.verify base.keyring ~signer ~msg ~signature

let make_context w i =
  let send ~dst env = enqueue w ~src:i ~dst (P.Message.encode env) in
  let multicast ~dsts env =
    let payload = P.Message.encode env in
    List.iter (fun dst -> enqueue w ~src:i ~dst payload) dsts
  in
  let set_timer ?(kind = P.Context.Tick) ~delay k =
    let r =
      {
        tid = w.next_tid;
        owner = i;
        due = Simtime.add w.clock delay;
        kind;
        callback = k;
        cancelled = false;
      }
    in
    w.next_tid <- w.next_tid + 1;
    w.timers <- r :: w.timers;
    { P.Context.cancel = (fun () -> r.cancelled <- true) }
  in
  {
    P.Context.id = i;
    now = (fun () -> w.clock);
    sign = (fun payload -> sign w.base ~signer:i payload);
    verify = (fun ~signer ~msg ~signature -> verify w.base ~signer ~msg ~signature);
    (* The checker explores with one mechanism for all bodies: accountable
       and wire signing coincide. *)
    sign_acc = (fun payload -> sign w.base ~signer:i payload);
    verify_acc = (fun ~signer ~msg ~signature -> verify w.base ~signer ~msg ~signature);
    digest_charge = ignore;
    images = w.base.images;
    batches = w.base.batches;
    send;
    multicast;
    set_timer;
    emit =
      (fun ev ->
        w.events_rev <- (w.clock, i, ev) :: w.events_rev;
        Fingerprint.add_string w.event_fps.(i) (Fingerprint.encode_event ev));
    (* The checker's worlds have no disks: a restart asks the peers. *)
    store = None;
  }

let fault_for spec i =
  match Model.faulty_process spec with
  | Some (j, fault) when Int.equal i j -> fault
  | _ -> P.Fault.Honest

let request_for_batch b =
  Request.make ~client:0 ~client_seq:b
    ~op:
      (Kv_store.encode_op
         (Kv_store.Put ("k" ^ string_of_int b, "v" ^ string_of_int b)))

let base spec =
  let config = Model.config spec in
  let n = P.Config.process_count config in
  let scheme = Replica.scheme config.P.Config.kind Scheme.mock in
  let key_rng = Rng.substream (Rng.create spec.Model.seed) "check-keys" in
  let keyring = Keyring.create ~scheme ~rng:key_rng ~node_count:n () in
  let requests = List.init spec.Model.batches (fun b -> request_for_batch (b + 1)) in
  let injected =
    List.fold_left
      (fun acc (r : Request.t) -> Request.Key_set.add r.Request.key acc)
      Request.Key_set.empty requests
  in
  let byz = Model.byzantine spec in
  let honest =
    List.filter (fun i -> not (List.mem i byz)) (List.init n (fun i -> i))
  in
  {
    spec;
    config;
    n;
    keyring;
    sigs = Sigs.create 256;
    images = P.Checkpoint.Images.create ();
    batches = P.Checkpoint.Images.create ~window:P.Checkpoint.batch_window ();
    machine = Kv_store.machines ();
    requests;
    injected;
    byz;
    honest;
  }

let of_base base =
  let n = base.n in
  let w =
    {
      base;
      procs = [||];
      clock = Simtime.zero;
      pending = [];
      timers = [];
      next_msg = 0;
      next_tid = 0;
      crashes_used = 0;
      events_rev = [];
      event_fps = Array.init n (fun _ -> Fingerprint.create ());
      delivered_log = Array.make n [];
    }
  in
  w.procs <-
    Replica.spawn ~config:base.config ~keyring:base.keyring ~fault:(fault_for base.spec)
      ~machine:base.machine (make_context w);
  Array.iter Replica.start w.procs;
  (* Clients broadcast: every process sees every request at time zero. *)
  List.iter
    (fun r -> Array.iter (fun p -> Replica.on_request p r) w.procs)
    base.requests;
  w

let build spec = of_base (base spec)

(* Timer scheduling: only the globally earliest-due eligible timer may
   fire (deterministic tie-break on allocation id), and firing advances the
   virtual clock to its due instant.  This models one monotone clock shared
   by all processes — what the discrete-event harness provides — rather
   than letting timers fire in arbitrary order, which would explore
   physically impossible clock reversals. *)
let timer_eligible w r =
  (not r.cancelled)
  && (not (crashed w r.owner))
  &&
  match r.kind with
  | P.Context.Tick -> true
  | P.Context.Watchdog -> w.base.spec.Model.explore_watchdogs

let eligible_earliest w =
  List.fold_left
    (fun best r ->
      if not (timer_eligible w r) then best
      else
        match best with
        | None -> Some r
        | Some b ->
          let c = Simtime.compare r.due b.due in
          if c < 0 || (c = 0 && r.tid < b.tid) then Some r else best)
    None w.timers

(* Channels are FIFO: between one (src, dst) pair only the oldest pending
   message is deliverable.  The discrete-event harness's random per-message
   delays can reorder a channel, so Nemesis covers non-FIFO substrates; the
   checker trades that coverage for tractability (documented in DESIGN.md
   §12) — without it the n-to-n vote rounds make even n = 4 inexhaustible. *)
let channel_head w m =
  not
    (List.exists
       (fun m' ->
         Int.equal m'.src m.src && Int.equal m'.dst m.dst
         && m'.msg_id < m.msg_id)
       w.pending)

let enabled w =
  let delivers =
    List.filter (fun m -> (not (crashed w m.dst)) && channel_head w m) w.pending
    |> List.map (fun m -> (m.msg_id, Schedule.Deliver m.msg_id))
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let fires =
    match eligible_earliest w with
    | Some r -> [ Schedule.Fire r.tid ]
    | None -> []
  in
  let crashes =
    if w.crashes_used < w.base.spec.Model.crash_budget then
      List.init w.base.n (fun p -> p)
      |> List.filter (fun p -> not (crashed w p))
      |> List.map (fun p -> Schedule.Crash p)
    else []
  in
  delivers @ fires @ crashes

let action_target w = function
  | Schedule.Deliver id ->
    Option.map
      (fun m -> m.dst)
      (List.find_opt (fun m -> Int.equal m.msg_id id) w.pending)
  | Schedule.Crash p -> Some p
  | Schedule.Fire _ -> None

(* Vote-like bodies accumulate per-sender into monotone quorum counters:
   the first signature from each sender wins a slot, and crossing a
   threshold triggers the same reaction whichever vote landed last.  A
   vote-like message still FIFO-blocked behind its channel head can
   therefore ride along with an ample candidate for the same destination
   without an explicit commutation check — its effect is a multiset
   insertion.  Anything else (orders, pre-prepares, install, view change,
   state transfer) must be currently enabled to qualify, so the explorer's
   one-step diamond can vet it empirically. *)
let vote_like_tag = function
  | "ack" | "prepare" | "commit" | "checkpoint" -> true
  | _ -> false

(* A candidate for single-successor ("ample") exploration: an enabled
   delivery whose destination [dd] has every dependence hanging over it in
   plain sight, so the explorer can validate each one before trusting the
   reduction (explore.ml):
   - other deliveries touch a different process (commute by target) or are
     co-enabled at [dd] (diamond-checked); messages to [dd] still blocked
     behind a channel head must be vote-like (see above);
   - every eligible timer owned by [dd] is the single currently enabled
     fire (diamond-checked); an eligible [dd]-timer that is not yet
     enabled could interleave with the handler unchecked, and blocks
     candidacy;
   - no crash of [dd] is enabled (a crash budget makes every state fully
     explored). *)
let ample_candidate w =
  let en = enabled w in
  let enabled_fire =
    List.find_map (function Schedule.Fire tid -> Some tid | _ -> None) en
  in
  let timers_visible dd =
    List.for_all
      (fun r ->
        (not (timer_eligible w r))
        || (not (Int.equal r.owner dd))
        ||
        match enabled_fire with
        | Some tid -> Int.equal r.tid tid
        | None -> false)
      w.timers
  in
  let pending_visible id dd =
    List.for_all
      (fun m ->
        (not (Int.equal m.dst dd))
        || Int.equal m.msg_id id
        || channel_head w m
        ||
        match P.Message.decode m.payload with
        | env -> vote_like_tag (P.Message.body_tag env.P.Message.body)
        | exception Sof_util.Codec.Reader.Truncated -> false)
      w.pending
  in
  let no_crash_of dd =
    not (List.exists (Schedule.equal_action (Schedule.Crash dd)) en)
  in
  List.find_opt
    (fun a ->
      match a with
      | Schedule.Deliver id -> (
        match List.find_opt (fun m -> Int.equal m.msg_id id) w.pending with
        | None -> false
        | Some m ->
          timers_visible m.dst && pending_visible id m.dst && no_crash_of m.dst)
      | Schedule.Fire _ | Schedule.Crash _ -> false)
    en

let apply w (a : Schedule.action) =
  match a with
  | Schedule.Deliver id -> (
    match List.find_opt (fun m -> Int.equal m.msg_id id) w.pending with
    | None -> Error (Printf.sprintf "message %d is not pending" id)
    | Some m ->
      if crashed w m.dst then
        Error (Printf.sprintf "message %d's destination %d is crashed" id m.dst)
      else if not (channel_head w m) then
        Error
          (Printf.sprintf "message %d is behind an older one on channel %d->%d"
             id m.src m.dst)
      else begin
        w.pending <-
          List.filter (fun m' -> not (Int.equal m'.msg_id id)) w.pending;
        hand_over w ~src:m.src ~dst:m.dst m.payload;
        Ok ()
      end)
  | Schedule.Fire tid -> (
    match eligible_earliest w with
    | Some r when Int.equal r.tid tid ->
      w.timers <- List.filter (fun x -> not (Int.equal x.tid tid)) w.timers;
      w.clock <- Simtime.max w.clock r.due;
      r.callback ();
      Ok ()
    | Some r ->
      Error
        (Printf.sprintf "timer %d is not the earliest eligible (timer %d is)"
           tid r.tid)
    | None -> Error (Printf.sprintf "timer %d: no timer is eligible" tid))
  | Schedule.Crash p ->
    if p < 0 || p >= w.base.n then Error (Printf.sprintf "no process %d" p)
    else if crashed w p then Error (Printf.sprintf "process %d already crashed" p)
    else if w.crashes_used >= w.base.spec.Model.crash_budget then
      Error "crash budget exhausted"
    else begin
      Replica.crash w.procs.(p);
      w.crashes_used <- w.crashes_used + 1;
      Ok ()
    end

let describe_action w (a : Schedule.action) =
  match a with
  | Schedule.Deliver id -> (
    match List.find_opt (fun m -> Int.equal m.msg_id id) w.pending with
    | None -> Printf.sprintf "deliver #%d (not pending)" id
    | Some m ->
      let tag =
        match P.Message.decode m.payload with
        | env -> P.Message.body_tag env.P.Message.body
        | exception Sof_util.Codec.Reader.Truncated -> "garbage"
      in
      Printf.sprintf "deliver #%d %s %d->%d" id tag m.src m.dst)
  | Schedule.Fire tid -> (
    match List.find_opt (fun r -> Int.equal r.tid tid) w.timers with
    | None -> Printf.sprintf "fire timer #%d" tid
    | Some r ->
      Printf.sprintf "fire timer #%d (%s of %d, +%.1fms)" tid
        (P.Context.timer_kind_name r.kind)
        r.owner
        (Simtime.to_ms (Simtime.diff r.due w.clock)))
  | Schedule.Crash p -> Printf.sprintf "crash %d" p

(* Canonical state hash.  Deliberately excluded: the virtual clock (two
   states differing only in elapsed idle time behave identically), message
   and timer allocation ids (commuting interleavings allocate them in
   different orders), and event timestamps.  Timers enter as (owner, kind,
   due - clock): the relative offset is what determines future behaviour,
   and hashing it closes the re-arm loops — a batch tick that fires, finds
   nothing to do and re-arms produces a state hash-equal to its
   predecessor.  Events are hashed per process (each process's sequence is
   canonical; interleaving across processes is not). *)
let fingerprint w =
  let acc = Fingerprint.create () in
  Array.iteri
    (fun i proc ->
      Fingerprint.add_bool acc (Replica.crashed proc);
      (match Replica.core proc with
      | Replica.Sc p ->
        Fingerprint.add_int acc 1;
        Fingerprint.add_int acc (P.Sc.coordinator_rank p);
        Fingerprint.add_int acc (Replica.max_committed proc);
        Fingerprint.add_int acc (Replica.delivered_seq proc);
        Fingerprint.add_bool acc (P.Sc.is_installing p);
        Fingerprint.add_bool acc (P.Sc.has_fail_signalled p);
        Fingerprint.add_bool acc (P.Sc.is_dumb p);
        Fingerprint.add_int acc (P.Sc.pending_requests p)
      | Replica.Scr p ->
        Fingerprint.add_int acc 2;
        Fingerprint.add_int acc (P.Scr.view p);
        Fingerprint.add_int acc (P.Scr.coordinator_rank p);
        Fingerprint.add_int acc
          (match P.Scr.pair_status p with
          | P.Scr.Up -> 0
          | P.Scr.Down -> 1
          | P.Scr.Permanently_down -> 2);
        Fingerprint.add_bool acc (P.Scr.changing_view p);
        Fingerprint.add_int acc (Replica.max_committed proc);
        Fingerprint.add_int acc (Replica.delivered_seq proc)
      | Replica.Bft p ->
        Fingerprint.add_int acc 3;
        Fingerprint.add_int acc (P.Bft.view p);
        Fingerprint.add_int acc (Replica.max_committed proc);
        Fingerprint.add_int acc (Replica.delivered_seq proc)
      | Replica.Ct p ->
        Fingerprint.add_int acc 4;
        Fingerprint.add_int acc (P.Ct.coordinator p);
        Fingerprint.add_int acc (Replica.max_committed proc);
        Fingerprint.add_int acc (Replica.delivered_seq proc));
      Fingerprint.add_int acc (Replica.log_length proc);
      Fingerprint.add_int acc (Replica.stable_checkpoint_seq proc);
      List.iter
        (fun (c, s) ->
          Fingerprint.add_int acc c;
          Fingerprint.add_int acc s)
        (Replica.client_marks proc);
      Fingerprint.add_string acc (State_machine.state_digest (Replica.machine proc));
      (* The process's full input multiset, sorted: together with the
         introspection fields this pins the hidden protocol state —
         deterministic processes are functions of their inputs, and the
         handlers' per-sender first-wins vote recording makes input order
         immaterial beyond what the fields above already expose. *)
      List.iter
        (fun (src, payload) ->
          Fingerprint.add_int acc src;
          Fingerprint.add_string acc payload)
        (List.sort compare w.delivered_log.(i)))
    w.procs;
  (* Per-process event sequences, oldest first, timestamps dropped: each
     is hashed as it grows ([make_context]'s [emit]). *)
  Array.iteri
    (fun i events ->
      Fingerprint.add_int acc i;
      Fingerprint.add_acc acc events)
    w.event_fps;
  (* Pending pool as a sorted multiset of (src, dst, payload); messages to
     crashed destinations can never be delivered (no restart in the
     checker), so they are invisible to the future and stay out. *)
  let live_pending =
    List.filter (fun m -> not (crashed w m.dst)) w.pending
    |> List.map (fun m -> (m.src, m.dst, m.payload))
    |> List.sort compare
  in
  List.iter
    (fun (src, dst, payload) ->
      Fingerprint.add_int acc src;
      Fingerprint.add_int acc dst;
      Fingerprint.add_string acc payload)
    live_pending;
  (* Armed timers that could still fire, by relative due. *)
  let live_timers =
    List.filter (timer_eligible w) w.timers
    |> List.map (fun r ->
           ( r.owner,
             (match r.kind with P.Context.Tick -> 0 | P.Context.Watchdog -> 1),
             Simtime.to_ns (Simtime.diff r.due w.clock) ))
    |> List.sort compare
  in
  List.iter
    (fun (owner, kind, rel_ns) ->
      Fingerprint.add_int acc owner;
      Fingerprint.add_int acc kind;
      Fingerprint.add_int acc rel_ns)
    live_timers;
  Fingerprint.add_int acc (w.base.spec.Model.crash_budget - w.crashes_used);
  Fingerprint.digest acc

(* Safety referee: the same event-core predicates Nemesis uses, restricted
   to the processes the model declares honest.  Crash-faulty processes stay
   in the honest set — their pre-crash deliveries still bind them. *)
let violation w =
  let { byz; honest; _ } = w.base in
  let events = List.rev w.events_rev in
  let checks =
    [
      Invariants.agreement_of ~events ~honest;
      Invariants.commit_coherence_of ~events ~honest;
      Invariants.prefix_consistency_of ~events ~honest;
      Invariants.validity_of ~events ~honest ~injected:w.base.injected;
      Invariants.checkpoint_agreement_of ~events ~honest;
      Invariants.fail_signal_soundness_of ~events ~config:w.base.config ~byz
        ~crashed:(crashed_list w);
    ]
  in
  List.find_opt (fun (r : Invariants.result) -> not r.Invariants.pass) checks
