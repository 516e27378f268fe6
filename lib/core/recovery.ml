module Simtime = Sof_sim.Simtime
module Request = Sof_smr.Request
module Key_map = Request.Key_map
module Key_tbl = Request.Key_tbl
module Codec = Sof_util.Codec
module Wal = Sof_storage.Wal

type scheme =
  | Quorum_signed of { quorum : int; member_ok : int -> bool }
  | Quorum_counted of { quorum : int; member_ok : int -> bool }
  | Pair_endorsed of { pair_ok : primary:int -> endorser:int option -> bool }

let cert_payload ~seq ~digest = Message.encode_body (Message.Checkpoint { seq; digest })

let distinct_signers proof =
  let rec go seen = function
    | [] -> true
    | (s, _) :: rest -> (not (List.exists (Int.equal s) seen)) && go (s :: seen) rest
  in
  go [] proof

let verify_cert ~verify ~scheme (c : Checkpoint.cert) =
  c.Checkpoint.cp_seq > 0
  && distinct_signers c.Checkpoint.cp_proof
  &&
  let payload = cert_payload ~seq:c.Checkpoint.cp_seq ~digest:c.Checkpoint.cp_digest in
  match scheme with
  | Quorum_signed { quorum; member_ok } ->
    List.length c.Checkpoint.cp_proof >= quorum
    && List.for_all (fun (s, _) -> member_ok s) c.Checkpoint.cp_proof
    && List.for_all
         (fun (s, signature) -> verify ~signer:s ~msg:payload ~signature)
         c.Checkpoint.cp_proof
  | Quorum_counted { quorum; member_ok } ->
    (* Crash-only model: claims are unsigned, distinct legitimate senders
       suffice (at least one of any f+1 is correct). *)
    List.length c.Checkpoint.cp_proof >= quorum
    && List.for_all (fun (s, _) -> member_ok s) c.Checkpoint.cp_proof
  | Pair_endorsed { pair_ok } -> begin
    let body =
      Message.Checkpoint { seq = c.Checkpoint.cp_seq; digest = c.Checkpoint.cp_digest }
    in
    match (c.Checkpoint.cp_proof, c.Checkpoint.cp_endorsement) with
    | [ (p, signature) ], None ->
      pair_ok ~primary:p ~endorser:None && verify ~signer:p ~msg:payload ~signature
    | [ (p, signature) ], Some (s, endorsement) ->
      pair_ok ~primary:p ~endorser:(Some s)
      && verify ~signer:p ~msg:payload ~signature
      && verify ~signer:s
           ~msg:(Message.endorsement_payload body signature)
           ~signature:endorsement
    | _ -> false
  end

module Tally = struct
  type vote = { v_digest : string; v_signer : int; v_signature : string }

  type t = { votes : (int, vote list) Hashtbl.t }

  let create () = { votes = Hashtbl.create 16 }

  let add t ~seq ~digest ~signer ~signature =
    let cur = Option.value (Hashtbl.find_opt t.votes seq) ~default:[] in
    if not (List.exists (fun v -> Int.equal v.v_signer signer) cur) then
      Hashtbl.replace t.votes seq
        ({ v_digest = digest; v_signer = signer; v_signature = signature } :: cur)

  let proof t ~seq ~digest =
    let cur = Option.value (Hashtbl.find_opt t.votes seq) ~default:[] in
    List.rev
      (List.filter_map
         (fun v ->
           if String.equal v.v_digest digest then Some (v.v_signer, v.v_signature)
           else None)
         cur)

  let count t ~seq ~digest = List.length (proof t ~seq ~digest)

  let prune t ~upto =
    let stale =
      Hashtbl.fold (fun seq _ acc -> if seq <= upto then seq :: acc else acc) t.votes []
    in
    List.iter (Hashtbl.remove t.votes) stale
end

(* One [State_response], recorded after the receiving protocol verified its
   certificate and image digest (offers failing those checks never get
   here).  [st_from] is the transport source, not the envelope creator. *)
type offer = {
  st_from : int;
  st_cert : Checkpoint.cert option;
  st_image : string;
  st_entries : Checkpoint.entry list;
}

type state = {
  mutable images : (int * string * string) list;
      (* (seq, image, digest), newest first: each image is digested once, and
         the string is the one the driver's other processes keep *)
  st_tally : Tally.t;
  mutable stables : (Checkpoint.cert * string) list;  (* newest first, at most 2 *)
  mutable st_offers : offer list;
  mutable st_fetching : bool;
  mutable st_fetch_anchor : int;
  st_marks : (int, int) Hashtbl.t;  (* client -> highest delivered client_seq *)
}

let create () =
  {
    images = [];
    st_tally = Tally.create ();
    stables = [];
    st_offers = [];
    st_fetching = false;
    st_fetch_anchor = 0;
    st_marks = Hashtbl.create 16;
  }

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let note_image state ~seq ~image ~digest =
  if not (List.exists (fun (s, _, _) -> Int.equal s seq) state.images) then
    (* The latest plus enough history to endorse and serve checkpoints
       still in flight. *)
    state.images <- take Checkpoint.image_window ((seq, image, digest) :: state.images)

let image_at state ~seq =
  List.find_map
    (fun (s, image, digest) -> if Int.equal s seq then Some (image, digest) else None)
    state.images

let stable_seq state =
  match state.stables with [] -> 0 | (c, _) :: _ -> c.Checkpoint.cp_seq

(* Only a checkpoint newer than the current stable one is recorded.  The
   previous one is retained: it is what a [Stale_checkpoint] responder
   serves. *)
let note_stable state ~cert ~image =
  if cert.Checkpoint.cp_seq <= stable_seq state then false
  else begin
    state.stables <- take 2 ((cert, image) :: state.stables);
    Tally.prune state.st_tally ~upto:cert.Checkpoint.cp_seq;
    true
  end

let latest_stable state =
  match state.stables with [] -> None | s :: _ -> Some s

let previous_stable state =
  match state.stables with _ :: p :: _ -> Some p | [] | [ _ ] -> None

(* A responder's later offer replaces its earlier one. *)
let add_offer state offer =
  state.st_offers <-
    offer :: List.filter (fun o -> not (Int.equal o.st_from offer.st_from)) state.st_offers

let clear_offers state = state.st_offers <- []

let offers state = state.st_offers

let best_image state ~above =
  List.fold_left
    (fun best off ->
      match off.st_cert with
      | Some c when c.Checkpoint.cp_seq > above -> begin
        match best with
        | Some (bc, _, _) when bc.Checkpoint.cp_seq >= c.Checkpoint.cp_seq -> best
        | Some _ | None -> Some (c, off.st_image, off.st_from)
      end
      | Some _ | None -> best)
    None state.st_offers

(* The longest contiguous suffix from [base + 1] whose every entry is
   claimed by [quorum] distinct responders and passes [entry_ok] (digest
   recomputation).  With [quorum] covering one correct responder, no
   fabricated entry survives. *)
let select_entries ~quorum ~base ~entry_ok state =
  let claims_at o =
    List.filter_map
      (fun off ->
        Option.map
          (fun e -> (off.st_from, e))
          (List.find_opt (fun (e : Checkpoint.entry) -> Int.equal e.Checkpoint.e_o o) off.st_entries))
      state.st_offers
  in
  let rec go acc o =
    let claims = claims_at o in
    let pick =
      List.find_opt
        (fun ((_, e) : int * Checkpoint.entry) ->
          let supporters =
            List.filter
              (fun ((_, e') : int * Checkpoint.entry) ->
                String.equal e'.Checkpoint.e_digest e.Checkpoint.e_digest)
              claims
          in
          List.length supporters >= quorum && entry_ok e)
        claims
    in
    match pick with
    | Some (_, e) -> go (e :: acc) (o + 1)
    | None -> List.rev acc
  in
  go [] (base + 1)

(* Per-client delivery high-water marks: the deterministic at-most-once
   filter that travels inside checkpoint images (see Checkpoint.wrap_image).
   Raw delivered-key sets are pruned at each process's own truncation pace,
   so they cannot be compared or transferred; the marks only depend on the
   delivered order prefix, which agreement makes common. *)

let fresh_key state (k : Sof_smr.Request.key) =
  match Hashtbl.find_opt state.st_marks k.Sof_smr.Request.client with
  | Some last -> k.Sof_smr.Request.client_seq > last
  | None -> true

let mark_delivered state (k : Sof_smr.Request.key) =
  let cur =
    Option.value
      (Hashtbl.find_opt state.st_marks k.Sof_smr.Request.client)
      ~default:(-1)
  in
  if k.Sof_smr.Request.client_seq > cur then
    Hashtbl.replace state.st_marks k.Sof_smr.Request.client
      k.Sof_smr.Request.client_seq

let marks state =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Hashtbl.fold (fun client last acc -> (client, last) :: acc) state.st_marks [])

let merge_marks state marks =
  List.iter
    (fun (client, last) ->
      let cur = Option.value (Hashtbl.find_opt state.st_marks client) ~default:(-1) in
      if last > cur then Hashtbl.replace state.st_marks client last)
    marks

let fetching state = state.st_fetching

let fetch_anchor state = state.st_fetch_anchor

let begin_fetch state ~have =
  state.st_fetching <- true;
  state.st_fetch_anchor <- have

let end_fetch state = state.st_fetching <- false

(* ------------------------------------------------------ delivery log *)

type 'slot log = {
  ctx : Context.t;
  rcv : state;
  f : int;
  digest : Sof_crypto.Digest_alg.t;
  interval : int;
  orders : (int, 'slot) Hashtbl.t;
  mutable delivered : int;
  mutable max_committed : int;
  mutable next_seq : int;
  mutable pending : Request.t Key_map.t;
  mutable arrival : Simtime.t Key_map.t;
  key_marks : int Key_tbl.t;
  mutable executed : Request.t Key_map.t;
  mutable recent_delivered : (int * Request.t list) list;
  mutable fetch_timer : Context.timer option;
  mutable fetch_backoff : int;
  spans : (int, int) Hashtbl.t;
}

let create_log ~ctx ~f ~digest ~interval =
  {
    ctx;
    rcv = create ();
    f;
    digest;
    interval;
    orders = Hashtbl.create 64;
    delivered = 0;
    max_committed = 0;
    next_seq = 1;
    pending = Key_map.empty;
    arrival = Key_map.empty;
    key_marks = Key_tbl.create 16;
    executed = Key_map.empty;
    recent_delivered = [];
    fetch_timer = None;
    fetch_backoff = 0;
    spans = Hashtbl.create 8;
  }

(* A key's marks: ordered and delivered bits, set independently; a key with
   neither has no entry. *)
let ordered_bit = 1
let delivered_bit = 2

let marked log bit k =
  match Key_tbl.find_opt log.key_marks k with Some m -> m land bit <> 0 | None -> false

let mark log bit k =
  match Key_tbl.find_opt log.key_marks k with
  | Some m -> if m land bit = 0 then Key_tbl.replace log.key_marks k (m lor bit)
  | None -> Key_tbl.add log.key_marks k bit

let note_ordered log k = mark log ordered_bit k
let key_ordered log k = marked log ordered_bit k
let key_delivered log k = marked log delivered_bit k

type 'slot hooks = {
  log : 'slot log;
  timing : Timing.t;
  scheme : scheme;
  entry_quorum : int;
  fault : Fault.t;
  retry_base : unit -> Simtime.t;
  committed_keys : 'slot -> Request.key list option;
  keep_executed : bool;
  settle_fresh_only : bool;
  boundary : int -> unit;
  tail_entry : int -> 'slot -> Checkpoint.entry option;
  admit : Checkpoint.entry -> bool;
  sign : Message.body -> Message.envelope;
  send : dst:int -> Message.envelope -> unit;
  multicast : Message.envelope -> unit;
}

type kernel = Kernel : 'slot hooks -> kernel [@@unboxed]

(* ---------------------------------------------------------- trace spans *)
(* [log.spans] maps a key (sequence number, view or rank) to the bit set of
   phases open under it.  Opens and closes are emitted only on a change of
   that set, so spans cannot double-open or close unopened.  [Context.emit]
   costs no simulated CPU, so spans never perturb seeded trajectories. *)

let bit : Context.phase -> int = function
  | Batch_phase -> 1 | Endorse_phase -> 2 | Order_phase -> 4 | Ack_phase -> 8
  | Pre_prepare_phase -> 16 | Prepare_phase -> 32 | Commit_phase -> 64
  | View_change_phase -> 128 | Install_phase -> 256 | Failover_phase -> 512
  | Checkpoint_phase -> 1024 | Recovery_phase -> 2048

let open_set log key = Option.value (Hashtbl.find_opt log.spans key) ~default:0

let set_open_set log key set =
  if Int.equal set 0 then Hashtbl.remove log.spans key else Hashtbl.replace log.spans key set

let span_open log phase seq =
  let set = open_set log seq in
  if
    set land bit phase = 0
    && ((not (Context.batch_scoped phase)) || set land bit Context.Batch_phase <> 0)
  then begin
    set_open_set log seq (set lor bit phase);
    log.ctx.Context.emit (Context.Span_open { phase; seq })
  end

let span_close log phase seq =
  let set = open_set log seq in
  if set land bit phase <> 0 then begin
    set_open_set log seq (set land lnot (bit phase));
    log.ctx.Context.emit (Context.Span_close { phase; seq })
  end

(* What a local commit closes, in the order it closes them: the
   batch-scoped phases in [Context.all_phases] order, then the batch. *)
let batch_close_order =
  List.filter Context.batch_scoped Context.all_phases @ [ Context.Batch_phase ]

let batch_phases = List.fold_left (fun set phase -> set lor bit phase) 0 batch_close_order

let close_batch_spans log seq =
  let set = open_set log seq in
  List.iter
    (fun phase ->
      if set land bit phase <> 0 then log.ctx.Context.emit (Context.Span_close { phase; seq }))
    batch_close_order;
  set_open_set log seq (set land lnot batch_phases)

(* The key a one-at-a-time phase is open under, if any. *)
let open_key log phase =
  Hashtbl.fold
    (fun key set acc -> if set land bit phase <> 0 then Some key else acc)
    log.spans None

let open_span log phase key = if open_key log phase = None then span_open log phase key

let close_span log phase =
  match open_key log phase with Some key -> span_close log phase key | None -> ()

(* Spans a truncation forgets at or below the cut: a dropped slot's batch
   phases, and a checkpoint that is stable or superseded, which can no
   longer close. *)
let truncated_phases = batch_phases lor bit Context.Checkpoint_phase

let truncate log upto =
  let stale =
    Hashtbl.fold (fun o _ acc -> if o <= upto then o :: acc else acc) log.orders []
  in
  List.iter (Hashtbl.remove log.orders) stale;
  Hashtbl.filter_map_inplace
    (fun key set ->
      let set = if key <= upto then set land lnot truncated_phases else set in
      if Int.equal set 0 then None else Some set)
    log.spans;
  (* Keep one extra interval of delivered keys so a coordinator installed
     late that re-orders a just-delivered request is still deduplicated. *)
  let keep_above = upto - log.interval in
  let dropped, kept = List.partition (fun (o, _) -> o <= keep_above) log.recent_delivered in
  List.iter
    (fun (_, requests) ->
      List.iter
        (fun (req : Request.t) ->
          Key_tbl.remove log.key_marks req.Request.key;
          log.executed <- Key_map.remove req.Request.key log.executed)
        requests)
    dropped;
  log.recent_delivered <- kept;
  log.ctx.Context.emit
    (Context.Log_truncated { upto; retained = Hashtbl.length log.orders })

(* ------------------------------------------------------ write-ahead log *)
(* The only code that reads or writes a replica's durable log.  A payload
   decoder treats its bytes as hostile: a frame that slipped past the log's
   checksum but does not decode comes back as [None]. *)

let checkpoint_pieces cert image =
  let w = Codec.Writer.create () in
  Checkpoint.write_cert w cert;
  Codec.Writer.varint w (String.length image);
  [ Codec.Writer.contents w; image ]

let decode_checkpoint_payload s =
  match
    let r = Codec.Reader.of_string s in
    let cert = Checkpoint.read_cert r in
    let image = Codec.Reader.string r in
    Codec.Reader.expect_end r;
    (cert, image)
  with
  | v -> Some v
  | exception Codec.Reader.Truncated -> None

let encode_entry_payload e =
  let w = Codec.Writer.create () in
  Checkpoint.write_entry w e;
  Codec.Writer.contents w

let decode_entry_payload s =
  match
    let r = Codec.Reader.of_string s in
    let e = Checkpoint.read_entry r in
    Codec.Reader.expect_end r;
    e
  with
  | e -> Some e
  | exception Codec.Reader.Truncated -> None

(* Commit implies sync: the entry is durable before the service acts on the
   batch, so every reply is backed by a frame the replica can replay.  The
   entry is digested under [log.digest], the digest replay checks it under.
   Charged after the append: CPU extensions at one instant add up in any
   order. *)
let log_delivery log ~seq (batch : Batch.t) =
  match log.ctx.Context.store with
  | None -> ()
  | Some store ->
    let payload =
      encode_entry_payload
        {
          Checkpoint.e_o = seq;
          e_digest = Batch.digest log.digest batch;
          e_requests = batch.Batch.requests;
        }
    in
    Wal.append store.Context.wal payload;
    Wal.sync store.Context.wal;
    log.ctx.Context.digest_charge (String.length payload);
    store.Context.charge_io (String.length payload)

(* Durable log truncation: a stable checkpoint heads a fresh log epoch. *)
let persist_checkpoint log cert ~image =
  match log.ctx.Context.store with
  | None -> ()
  | Some store ->
    let pieces = checkpoint_pieces cert image in
    Wal.write_checkpoint store.Context.wal pieces;
    store.Context.charge_io (List.fold_left (fun n p -> n + String.length p) 0 pieces)

let boundary_image log o =
  let image =
    Checkpoint.wrap_image ~state:(log.ctx.Context.snapshot ()) ~marks:(marks log.rcv)
  in
  log.ctx.Context.digest_charge (String.length image);
  let image, digest = Checkpoint.Images.digest log.ctx.Context.images log.digest image in
  note_image log.rcv ~seq:o ~image ~digest;
  span_open log Context.Checkpoint_phase o;
  digest

let adopt log (cert : Checkpoint.cert) ~image =
  if note_stable log.rcv ~cert ~image then begin
    log.ctx.Context.emit
      (Context.Checkpoint_stable
         { seq = cert.Checkpoint.cp_seq; digest = cert.Checkpoint.cp_digest });
    persist_checkpoint log cert ~image;
    span_close log Context.Checkpoint_phase cert.Checkpoint.cp_seq;
    truncate log cert.Checkpoint.cp_seq
  end

let stabilize log ~quorum ~seq ~digest =
  if seq > stable_seq log.rcv && Tally.count log.rcv.st_tally ~seq ~digest >= quorum then
    match image_at log.rcv ~seq with
    | Some (image, kept) when String.equal kept digest ->
      adopt log
        {
          Checkpoint.cp_seq = seq;
          cp_digest = digest;
          cp_proof = Tally.proof log.rcv.st_tally ~seq ~digest;
          cp_endorsement = None;
        }
        ~image
    | Some _ | None -> ()

let rec advance h =
  let log = h.log in
  match Option.bind (Hashtbl.find_opt log.orders (log.delivered + 1)) h.committed_keys with
  | None -> ()
  | Some keys ->
    (* At-most-once: a coordinator installed after a fail-over or view
       change may re-order requests an earlier one already committed.
       Honest processes agree on the committed prefix, so they prune the
       same already-delivered keys and execute identical sub-batches.  With
       checkpointing on, the per-client marks filter too: the key marks are
       pruned by truncation, and only the marks survive a state transfer
       (they ride inside the image). *)
    let fresh =
      List.filter
        (fun k ->
          (not (key_delivered log k))
          && (log.interval = 0 || fresh_key log.rcv k))
        keys
    in
    let requests = List.filter_map (fun k -> Key_map.find_opt k log.pending) fresh in
    (* Otherwise some requests are not here yet; clients broadcast to all
       over a reliable network, so they will arrive and retrigger
       delivery. *)
    if Int.equal (List.length requests) (List.length fresh) then begin
      let o = log.delivered + 1 in
      log.delivered <- o;
      List.iter
        (fun k ->
          mark log delivered_bit k;
          if log.interval > 0 then mark_delivered log.rcv k;
          (if h.keep_executed then
             match Key_map.find_opt k log.pending with
             | Some r -> log.executed <- Key_map.add k r log.executed
             | None -> ());
          log.pending <- Key_map.remove k log.pending;
          log.arrival <- Key_map.remove k log.arrival)
        (if h.settle_fresh_only then fresh else keys);
      let batch = Batch.make requests in
      log_delivery log ~seq:o batch;
      log.ctx.Context.deliver ~seq:o batch;
      log.ctx.Context.emit (Context.Delivered { seq = o; batch });
      if log.interval > 0 then begin
        log.recent_delivered <- (o, requests) :: log.recent_delivered;
        if Checkpoint.is_boundary ~interval:log.interval o then h.boundary o
      end;
      advance h
    end

(* ------------------------------------------------------ state transfer *)

let flip_first_byte s =
  let b = Bytes.of_string s in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  Bytes.to_string b

let batch_entry log ~o keys =
  let requests = List.filter_map (fun k -> Key_map.find_opt k log.pending) keys in
  if Int.equal (List.length requests) (List.length keys) then begin
    let batch = Batch.make requests in
    log.ctx.Context.digest_charge (Batch.encoded_size batch);
    Some
      {
        Checkpoint.e_o = o;
        e_digest = Batch.digest log.digest batch;
        e_requests = requests;
      }
  end
  else None

(* Serve the stable checkpoint image (when the requester is behind it), the
   retained delivered batches, and the committed-but-undelivered tail.
   Delivered entries are served as the batch actually handed to the
   service, with the digest recomputed over exactly those requests —
   correct processes deliver identical filtered batches, so their digests
   agree and f+1 matching claims pin each entry down at the requester.  A
   Byzantine responder can serve a corrupt image ([Corrupt_checkpoint_image])
   or a lazily stale checkpoint ([Stale_checkpoint]); the first is rejected
   against the certified digest, the second simply loses to fresher offers.
   One serving from a tampered local log ([Corrupt_wal_suffix]) keeps the
   checkpoint genuine but flips every entry digest, so the requester's
   entry checks exclude the whole suffix. *)
let serve_state_request h ~src ~have =
  let log = h.log in
  let stable =
    match h.fault with
    | Fault.Stale_checkpoint -> previous_stable log.rcv
    | _ -> latest_stable log.rcv
  in
  let cert, image =
    match stable with
    | Some (c, img) when c.Checkpoint.cp_seq > have -> (Some c, img)
    | Some _ | None -> (None, "")
  in
  let image =
    match h.fault with
    | Fault.Corrupt_checkpoint_image when String.length image > 0 -> flip_first_byte image
    | _ -> image
  in
  let base = match cert with Some c -> max have c.Checkpoint.cp_seq | None -> have in
  let entries =
    match h.fault with
    | Fault.Stale_checkpoint -> []
    | _ ->
      let delivered_entries =
        List.filter_map
          (fun (o, requests) ->
            if o > base then begin
              let batch = Batch.make requests in
              log.ctx.Context.digest_charge (Batch.encoded_size batch);
              Some
                {
                  Checkpoint.e_o = o;
                  e_digest = Batch.digest log.digest batch;
                  e_requests = requests;
                }
            end
            else None)
          log.recent_delivered
      in
      let tail =
        Hashtbl.fold
          (fun o st acc ->
            if o <= log.delivered || o <= base then acc
            else match h.tail_entry o st with Some e -> e :: acc | None -> acc)
          log.orders []
      in
      List.sort
        (fun (a : Checkpoint.entry) b -> Int.compare a.Checkpoint.e_o b.Checkpoint.e_o)
        (delivered_entries @ tail)
  in
  let entries =
    match h.fault with
    | Fault.Corrupt_wal_suffix ->
      List.map
        (fun (e : Checkpoint.entry) ->
          match e.Checkpoint.e_digest with
          | "" -> e
          | d -> { e with Checkpoint.e_digest = flip_first_byte d })
        entries
    | _ -> entries
  in
  h.send ~dst:src (h.sign (Message.State_response { cert; image; entries }))

let entry_ok log (e : Checkpoint.entry) =
  let batch = Batch.make e.Checkpoint.e_requests in
  log.ctx.Context.digest_charge (Batch.encoded_size batch);
  String.equal (Batch.digest log.digest batch) e.Checkpoint.e_digest

(* Install the best certified image above our delivery point, then the
   contiguous entry suffix with [entry_quorum] matching claims per entry.
   Transferred entries enter the log as committed and are delivered by the
   normal in-sequence walk; no Committed event is re-emitted for them. *)
let install_from_offers ?(announce = true) h ~entry_quorum =
  let log = h.log in
  let image_installed =
    match best_image log.rcv ~above:log.delivered with
    | Some (cert, image, _) -> begin
      match Checkpoint.unwrap_image image with
      | None -> false (* digest-verified yet malformed: refuse quietly *)
      | Some (snap, marks) ->
        log.ctx.Context.restore snap;
        merge_marks log.rcv marks;
        log.delivered <- cert.Checkpoint.cp_seq;
        if log.max_committed < cert.Checkpoint.cp_seq then
          log.max_committed <- cert.Checkpoint.cp_seq;
        (* Every recorded offer passed [offer_ok], which checked this
           digest against the image. *)
        note_image log.rcv ~seq:cert.Checkpoint.cp_seq ~image ~digest:cert.Checkpoint.cp_digest;
        if note_stable log.rcv ~cert ~image then begin
          log.ctx.Context.emit
            (Context.Checkpoint_stable
               { seq = cert.Checkpoint.cp_seq; digest = cert.Checkpoint.cp_digest });
          persist_checkpoint log cert ~image
        end;
        truncate log cert.Checkpoint.cp_seq;
        true
    end
    | None -> false
  in
  let installed_at = log.delivered in
  let entries =
    select_entries ~quorum:entry_quorum ~base:log.delivered ~entry_ok:(entry_ok log) log.rcv
  in
  List.iter
    (fun (e : Checkpoint.entry) ->
      if h.admit e then begin
        List.iter
          (fun (r : Request.t) ->
            note_ordered log r.Request.key;
            if
              (not (Key_map.mem r.Request.key log.pending))
              && not (key_delivered log r.Request.key)
            then log.pending <- Key_map.add r.Request.key r log.pending)
          e.Checkpoint.e_requests;
        if e.Checkpoint.e_o > log.max_committed then log.max_committed <- e.Checkpoint.e_o
      end)
    entries;
  if announce && (image_installed || entries <> []) then
    log.ctx.Context.emit
      (Context.State_transfer_installed { seq = installed_at; entries = List.length entries });
  advance h

(* The certificate under the protocol's trust model, and the image bytes
   against the certified digest; [Some image] (the memo's copy when it
   holds these bytes) if both pass.  An offer without a certificate carries
   only log entries, each checked against its recomputed batch digest at
   install time. *)
let offer_ok h ~cert ~image =
  match cert with
  | None -> Some image
  | Some c ->
    let log = h.log in
    log.ctx.Context.digest_charge (String.length image);
    if
      verify_cert
        ~verify:(fun ~signer ~msg ~signature -> log.ctx.Context.verify_acc ~signer ~msg ~signature)
        ~scheme:h.scheme c
    then
      let image, digest = Checkpoint.Images.digest log.ctx.Context.images log.digest image in
      if String.equal digest c.Checkpoint.cp_digest then Some image else None
    else None

let recover_local h ~cert ~image ~entries =
  let log = h.log in
  let before = log.delivered in
  match offer_ok h ~cert ~image with
  | None ->
    log.ctx.Context.emit (Context.State_transfer_rejected { from = log.ctx.Context.id });
    false
  | Some image ->
    clear_offers log.rcv;
    add_offer log.rcv
      { st_from = log.ctx.Context.id; st_cert = cert; st_image = image; st_entries = entries };
    (* The synthetic self-offer is a local replay, not a peer transfer:
       [recover] announces it as [Wal_replayed], so the install stays silent
       to keep transfer accounting honest. *)
    install_from_offers ~announce:false h ~entry_quorum:1;
    clear_offers log.rcv;
    (* A recovered process must never mint at or below what it just
       restored: a fresh order under a committed sequence number could
       strand below the delivery low-water mark or conflict with an
       absorbed entry. *)
    if log.next_seq <= log.max_committed then log.next_seq <- log.max_committed + 1;
    log.delivered > before

(* The highest sequence number any collected offer can take us to. *)
let fetch_target log =
  List.fold_left
    (fun acc (off : offer) ->
      let acc =
        match off.st_cert with Some c -> max acc c.Checkpoint.cp_seq | None -> acc
      in
      List.fold_left
        (fun acc (e : Checkpoint.entry) -> max acc e.Checkpoint.e_o)
        acc off.st_entries)
    0 (offers log.rcv)

(* The fetch ends once we have caught up to everything offered — but only
   after offers from f+1 distinct responders, so at least one is honest.  A
   single early "nothing above your watermark" reply (a peer that is itself
   recovering, or one whose stable checkpoint the requester already holds)
   must not terminate the fetch before a helpful offer arrives. *)
let maybe_end_fetch log =
  if fetching log.rcv && List.length (offers log.rcv) > log.f && log.delivered >= fetch_target log
  then begin
    span_close log Context.Recovery_phase (fetch_anchor log.rcv);
    end_fetch log.rcv;
    (match log.fetch_timer with Some h -> h.Context.cancel () | None -> ());
    log.fetch_timer <- None;
    log.fetch_backoff <- 0;
    clear_offers log.rcv
  end

let rec fetch_tick h =
  let log = h.log in
  if fetching log.rcv then begin
    clear_offers log.rcv;
    h.multicast (h.sign (Message.State_request { have = log.delivered }));
    let delay = Timing.retry_delay h.timing (h.retry_base ()) ~level:log.fetch_backoff in
    log.fetch_backoff <- log.fetch_backoff + 1;
    log.fetch_timer <- Some (log.ctx.Context.set_timer ~delay (fun () -> fetch_tick h))
  end

let request_recovery h =
  let log = h.log in
  if not (fetching log.rcv) then begin
    begin_fetch log.rcv ~have:log.delivered;
    log.ctx.Context.emit (Context.State_transfer_started { have = log.delivered });
    span_open log Context.Recovery_phase log.delivered;
    fetch_tick h
  end

let handle_state_response h ~src ~cert ~image ~entries =
  let log = h.log in
  if fetching log.rcv then begin
    match offer_ok h ~cert ~image with
    | None -> log.ctx.Context.emit (Context.State_transfer_rejected { from = src })
    | Some image ->
      add_offer log.rcv { st_from = src; st_cert = cert; st_image = image; st_entries = entries };
      install_from_offers h ~entry_quorum:h.entry_quorum;
      maybe_end_fetch log
  end

(* Local-first recovery after a restart: re-mount the log, decode what the
   disk preserved and turn its epoch over (to the recovered checkpoint, or
   empty) so re-deliveries during replay are logged afresh rather than
   behind the frames being replayed.  Reading the log back is charged before
   the replay installs anything; peers are asked only when the suffix was
   damaged or replay left delivery where it started. *)
let recover h =
  let log = h.log in
  match log.ctx.Context.store with
  | None -> request_recovery h
  | Some store ->
    let wal = store.Context.wal in
    Wal.remount wal;
    let rp = Wal.replay wal in
    let cert_image = Option.bind rp.Wal.rp_checkpoint decode_checkpoint_payload in
    let entries = List.filter_map decode_entry_payload rp.Wal.rp_entries in
    (match (rp.Wal.rp_checkpoint, cert_image) with
    | Some payload, Some _ -> Wal.write_checkpoint wal [ payload ]
    | _ -> Wal.reset wal);
    store.Context.charge_io
      (String.length (Option.value rp.Wal.rp_checkpoint ~default:"")
      + List.fold_left (fun a s -> a + String.length s) 0 rp.Wal.rp_entries);
    let damaged =
      rp.Wal.rp_damaged
      || (Option.is_some rp.Wal.rp_checkpoint && Option.is_none cert_image)
      || List.compare_length_with entries (List.length rp.Wal.rp_entries) < 0
    in
    let cert, image =
      match cert_image with Some (c, img) -> (Some c, img) | None -> (None, "")
    in
    let advanced = recover_local h ~cert ~image ~entries in
    let seq = match cert with Some c -> c.Checkpoint.cp_seq | None -> 0 in
    log.ctx.Context.emit
      (Context.Wal_replayed { seq; entries = List.length entries; damaged });
    if damaged || not advanced then request_recovery h

(* ---------------------------------------------------------- kernel jobs *)
(* The replica jobs every core runs alike: minting a batch, taking in a
   request, RTT probes, the stall check and quorum-tallied checkpoints. *)

let unordered log = Key_map.filter (fun k _ -> not (key_ordered log k)) log.pending

let mint h requests =
  let log = h.log in
  let batch = Batch.make requests in
  let o = log.next_seq in
  log.next_seq <- o + 1;
  log.ctx.Context.digest_charge (Batch.encoded_size batch);
  let digest = Batch.digest log.digest batch in
  let digest =
    match h.fault with
    | Fault.Corrupt_digest_at at when Int.equal at o ->
      (* Value-domain fault: lie about the batch's contents. *)
      flip_first_byte digest
    | _ -> digest
  in
  let keys = Batch.keys batch in
  List.iter (note_ordered log) keys;
  log.ctx.Context.emit
    (Context.Batched
       { seq = o; requests = Batch.request_count batch; bytes = Batch.encoded_size batch });
  { Message.o; digest; keys }

let on_request h (req : Request.t) =
  let log = h.log in
  let key = req.Request.key in
  if not (Key_map.mem key log.pending) then begin
    log.pending <- Key_map.add key req log.pending;
    if not (key_ordered log key) then
      log.arrival <- Key_map.add key (log.ctx.Context.now ()) log.arrival;
    advance h
  end

let send_probe h dst =
  let at = Simtime.to_ns (h.log.ctx.Context.now ()) in
  h.send ~dst (h.sign (Message.Probe { nonce = Timing.next_probe h.timing; at }))

(* Echo the sender's timestamp back; replies are liveness-only input so
   they need no verification beyond the estimator's nonce filter. *)
let answer_probe h ~src ~nonce ~at =
  if Timing.adaptive h.timing then h.send ~dst:src (h.sign (Message.Probe_reply { nonce; at }))

let note_probe_reply h ~src ~nonce ~at =
  Timing.note_probe_reply h.timing ~now:(h.log.ctx.Context.now ()) ~src ~nonce ~at

let stalled log ~since ~budget =
  let now = log.ctx.Context.now () in
  Simtime.compare (Simtime.add since budget) now <= 0
  && Key_map.exists
       (fun k arrived ->
         (not (key_ordered log k)) && Simtime.compare (Simtime.add arrived budget) now <= 0)
       log.arrival

(* A checkpoint a full interval ahead of our delivery point means we missed
   traffic that has since been truncated at our peers (likely we were just
   restarted): catch up through state transfer rather than waiting for
   retransmissions that will never come. *)
let catch_up h ~seq = if seq > h.log.delivered + h.log.interval then request_recovery h

let quorum_boundary h ~quorum o =
  let log = h.log in
  let digest = boundary_image log o in
  let env = h.sign (Message.Checkpoint { seq = o; digest }) in
  Tally.add log.rcv.st_tally ~seq:o ~digest ~signer:log.ctx.Context.id
    ~signature:env.Message.signature;
  h.multicast env;
  stabilize log ~quorum ~seq:o ~digest

let checkpoint_vote h ~quorum ~seq ~digest ~signer ~signature =
  Tally.add h.log.rcv.st_tally ~seq ~digest ~signer ~signature;
  stabilize h.log ~quorum ~seq ~digest;
  catch_up h ~seq
