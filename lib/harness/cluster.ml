module Simtime = Sof_sim.Simtime
module Engine = Sof_sim.Engine
module Cpu = Sof_sim.Cpu
module Network = Sof_net.Network
module Channel = Sof_net.Channel
module Delay_model = Sof_net.Delay_model
module Scheme = Sof_crypto.Scheme
module Keyring = Sof_crypto.Keyring
module Issued = Sof_crypto.Issued
module Request = Sof_smr.Request
module P = Sof_protocol
module Sim_disk = Sof_storage.Sim_disk
module Wal = Sof_storage.Wal
module Fault_atlas = Sof_storage.Fault_atlas
module Replica = Sof_protocol.Replica

type kind = Replica.kind = Sc_protocol | Scr_protocol | Bft_protocol | Ct_protocol

type spec = {
  kind : kind;
  f : int;
  scheme : Scheme.t;
  auth : Keyring.auth;
      (* wire authentication for quorum-internal messages: [Sign] uses the
         scheme for everything; [Mac] provisions pairwise keys and sends
         MAC authenticator vectors for non-accountable bodies, while
         orders, fail-signals and checkpoints keep scheme signatures *)
  amortize_verify : bool;
      (* cache verified (signer, msg, signature) triples on the accountable
         path so quorum re-checks of an identical payload verify once *)
  batching_interval : Simtime.t;
  batch_size_limit : int;
  pair_delay_estimate : Simtime.t;
  heartbeat_interval : Simtime.t;
  pair_link : Delay_model.t;
  seed : int64;
  faults : (int * P.Fault.t) list;
  machine_factory : unit -> unit -> Sof_smr.State_machine.t;
  dumb_optimization : bool;
  real_crypto : bool;
  use_channel : bool;
  checkpoint_interval : int;
      (* checkpoint every this-many delivered sequence numbers; 0 disables
         checkpointing, truncation and state transfer *)
  durable : bool;
      (* give every node a simulated disk and write-ahead log: commit implies
         sync before the reply is recorded, and restart replays the local log
         before falling back to peer state transfer *)
  disk_profile : Fault_atlas.profile option;
      (* storage-fault atlas applied to the disks of replicas 1..f (the
         storage-fault budget mirrors the process-fault budget); [None] means
         all disks are well-behaved *)
  timing : P.Config.timing;
      (* Static keeps the paper's fixed delay estimate; Adaptive feeds every
         suspicion/retransmit timer from measured round-trips *)
}

let default_spec ~kind ~f =
  {
    kind;
    f;
    scheme = Scheme.mock;
    auth = Keyring.Sign;
    amortize_verify = false;
    batching_interval = Simtime.ms 100;
    batch_size_limit = 1024;
    pair_delay_estimate = Simtime.ms 100;
    heartbeat_interval = Simtime.ms 25;
    pair_link = Delay_model.pair_link_default;
    seed = 1L;
    faults = [];
    machine_factory = Sof_smr.Kv_store.machines;
    dumb_optimization = true;
    real_crypto = false;
    use_channel = false;
    checkpoint_interval = 0;
    durable = false;
    disk_profile = None;
    timing = P.Config.Static;
  }

(* 2 MiB per replica, split into two 1 MiB write-ahead-log regions — ample
   for a checkpoint image plus one interval of batches at test scale. *)
let disk_sector_size = 256
let disk_sector_count = 8192

(* Per-node accounting for the tracing layer: crypto operations charged
   through the context, and sends grouped by wire tag.  Mutated from the
   context wrappers; snapshots leave through [crypto_counts]/[send_counts]
   as immutable {!Trace} records. *)
type crypto_ctr = {
  mutable c_signs : int;
  mutable c_verifies : int;
  mutable c_hmacs : int;
  mutable c_sign_ns : int;
  mutable c_verify_ns : int;
  mutable c_hmac_ns : int;
  mutable c_verify_cached : int;
  mutable c_digest_bytes : int;
  mutable c_digest_ns : int;
}

type node = {
  node_cpu : Cpu.t;
  node_crypto : crypto_ctr;
  node_sends : (string, int ref * int ref) Hashtbl.t;  (* tag -> msgs, bytes *)
  mutable node_encodes : int;  (* envelopes encoded: one per send or multicast *)
  mutable node_decodes : int;  (* payloads handed to the decoder *)
  node_disk : Sim_disk.t option;
      (* the platter: survives crash/restart, unlike everything above *)
  node_wal : Wal.t option;
      (* mounted on [node_disk] once; the replica kernel re-mounts it on
         every restart *)
  mutable node_slow_prior : int;
      (* slow-sector ops already converted into CPU stall; the delta
         against the disk's counter is charged at each disk interaction *)
}

type t = {
  spec : spec;
  engine : Engine.t;
  net : Network.t;
  chan : Channel.t option;
  adversary : Adversary.t option;
  keyring : Keyring.t;
  issued : Issued.t;
      (* every signature [sign_acc] made, so the n - 1 receivers of one
         multicast recognise it instead of each recomputing it *)
  images : P.Checkpoint.Images.t;
      (* the latest checkpoint images, so the n replicas that wrap one
         image hash it once and keep one copy *)
  batches : P.Checkpoint.Images.t;  (* the latest batches, hashed once for all replicas *)
  cuts : Wal.Cuts.t;  (* the latest images cut into sectors, once for all logs *)
  config : P.Config.t;
  nodes : node array;
  mutable procs : Replica.t array;  (* one process shell per node *)
  mutable event_log : (Simtime.t * int * P.Context.event) list;
  replies : (int * string) list ref Request.Key_tbl.t;
}

let config t = t.config
let process_count t = Array.length t.nodes
let engine t = t.engine
let network t = t.net
let channel t = t.chan
let adversary t = t.adversary
let spec t = t.spec

(* Protocol traffic goes straight onto the network, or through the reliable
   channel when the spec asks for one (lossy-substrate runs).  The wire
   adversary intercepts here, above the channel, so a replayed stale payload
   is framed as a fresh transmission that the receiving channel's duplicate
   suppression cannot absorb. *)
let transport_send t ~src ~dst payload =
  let payloads =
    match t.adversary with
    | Some adv -> Adversary.outbound adv ~src ~dst ~payload
    | None -> [ payload ]
  in
  List.iter
    (fun p ->
      match t.chan with
      | Some chan -> Channel.send chan ~src ~dst p
      | None -> Network.send t.net ~src ~dst p)
    payloads

let set_transport_handler t who handler =
  match t.chan with
  | Some chan -> Channel.set_handler chan who handler
  | None -> Network.set_handler t.net who handler

let proc t i = t.procs.(i)
let machine t i = Replica.machine t.procs.(i)

let events t = List.rev t.event_log

let crypto_counts t i =
  let c = t.nodes.(i).node_crypto in
  {
    Trace.signs = c.c_signs;
    verifies = c.c_verifies;
    hmacs = c.c_hmacs;
    sign_ns = c.c_sign_ns;
    verify_ns = c.c_verify_ns;
    hmac_ns = c.c_hmac_ns;
    verify_cached = c.c_verify_cached;
    digest_bytes = c.c_digest_bytes;
    digest_ns = c.c_digest_ns;
  }

let send_counts t i =
  Hashtbl.fold
    (fun tag (msgs, bytes) acc ->
      { Trace.tag; msgs = !msgs; bytes = !bytes } :: acc)
    t.nodes.(i).node_sends []
  |> List.sort (fun (a : Trace.msg_count) b -> String.compare a.Trace.tag b.Trace.tag)

let total_send_counts t =
  Trace.merge_msg_counts
    (List.init (process_count t) (fun i -> send_counts t i))

let total_crypto_counts t =
  Trace.total_crypto (List.init (process_count t) (fun i -> crypto_counts t i))

let codec_counts t =
  Array.fold_left
    (fun (e, d) node -> (e + node.node_encodes, d + node.node_decodes))
    (0, 0) t.nodes

let images t = t.images
let batches t = t.batches
let cuts t = t.cuts

let run t ~until = Engine.run ~until t.engine

(* The process stops, the network cuts the node off, and a durable node's
   disk crashes too: unsynced writes are lost and, under a torn-write
   atlas, the last flushed sector is torn. *)
let crash t i =
  if not (Replica.crashed t.procs.(i)) then begin
    Replica.crash t.procs.(i);
    Network.crash t.net i;
    Option.iter Sim_disk.crash t.nodes.(i).node_disk
  end

(* The node rejoins the network and its shell restarts the process with
   empty volatile state; the transport handler and request injection go
   through the shell, so all new traffic reaches the new incarnation,
   which recovers from its own log first when it has one. *)
let restart t i =
  if Replica.crashed t.procs.(i) then begin
    Network.restart t.net i;
    Replica.restart t.procs.(i)
  end

let log_length t i = Replica.log_length t.procs.(i)
let stable_checkpoint_seq t i = Replica.stable_checkpoint_seq t.procs.(i)
let delivered_seq t i = Replica.delivered_seq t.procs.(i)
let client_marks t i = Replica.client_marks t.procs.(i)

(* Gray storage failure: every slow-sector operation the disk noted since
   the last interaction becomes a CPU stall — the write completed, the
   drive reported no error, and the replica still fell behind. *)
let charge_disk_slowness t i =
  let node = t.nodes.(i) in
  match node.node_disk with
  | None -> ()
  | Some sd ->
    let slow = (Sim_disk.stats sd).Sim_disk.sd_slow_ops in
    let fresh = slow - node.node_slow_prior in
    if fresh > 0 then begin
      node.node_slow_prior <- slow;
      Cpu.extend node.node_cpu
        (Cost_model.disk_slow_cost Cost_model.default ~slow_ops:fresh)
    end

let charge_disk_write t i ~size =
  let node = t.nodes.(i) in
  Cpu.extend node.node_cpu (Cost_model.disk_append_cost Cost_model.default ~size);
  Cpu.extend node.node_cpu (Cost_model.disk_sync_cost Cost_model.default);
  charge_disk_slowness t i

(* What node [i]'s process is given, with all CPU charging. *)
let make_context t i =
  let node = t.nodes.(i) in
  let costs = t.spec.scheme.Scheme.costs in
  let ctr = node.node_crypto in
  let n = process_count t in
  (* When the primary scheme itself is an authenticator vector, each "sign"
     computes one tag per receiver; charge and count all n of them. *)
  let acc_tags =
    match t.spec.scheme.Scheme.mechanism with Scheme.Mac_vector -> n | _ -> 1
  in
  let sign_acc payload =
    ctr.c_signs <- ctr.c_signs + 1;
    ctr.c_sign_ns <- ctr.c_sign_ns + (acc_tags * costs.Scheme.sign_ns);
    Cpu.extend node.node_cpu (Simtime.ns (acc_tags * costs.Scheme.sign_ns));
    Issued.sign t.issued ~signer:i payload
  in
  (* The charge is the cost table's either way; the memo only saves the
     host recomputing the stand-in.  [real_crypto] runs the genuine
     mechanism on every message. *)
  let check_scheme =
    if t.spec.real_crypto then Keyring.verify ~verifier:i t.keyring
    else Issued.verify ~verifier:i t.issued
  in
  let verify_scheme ~signer ~msg ~signature =
    ctr.c_verifies <- ctr.c_verifies + 1;
    ctr.c_verify_ns <- ctr.c_verify_ns + costs.Scheme.verify_ns;
    Cpu.extend node.node_cpu (Simtime.ns costs.Scheme.verify_ns);
    check_scheme ~signer ~msg ~signature
  in
  (* Amortized verification: quorum protocols re-check the same signed
     payload when it is echoed (an endorsed order repeats the order's base
     signature; a relayed fail-signal repeats its envelope).  The cache
     answers repeats without charging CPU.  Keyed on the full triple, so a
     forgery attempt never aliases a cached good signature. *)
  let verify_acc =
    if not t.spec.amortize_verify then verify_scheme
    else begin
      let cache = Issued.Table.create () in
      fun ~signer ~msg ~signature ->
        match Issued.Table.find_opt cache ~signer ~msg ~signature with
        | Some ok ->
          ctr.c_verify_cached <- ctr.c_verify_cached + 1;
          ok
        | None ->
          let ok = verify_scheme ~signer ~msg ~signature in
          Issued.Table.add cache ~signer ~msg ~signature ok;
          ok
    end
  in
  (* Wire authentication: under [Mac] the quorum phases send PBFT-style
     authenticator vectors — n tags computed per sign, one slice checked
     per receive — at symmetric-crypto prices. *)
  let mac_wire = Keyring.mac_provisioned t.keyring in
  let mac_costs = Scheme.mac_vector.Scheme.costs in
  let sign payload =
    if mac_wire then begin
      ctr.c_hmacs <- ctr.c_hmacs + n;
      ctr.c_hmac_ns <- ctr.c_hmac_ns + (n * mac_costs.Scheme.sign_ns);
      Cpu.extend node.node_cpu (Simtime.ns (n * mac_costs.Scheme.sign_ns));
      Keyring.sign_vector t.keyring ~signer:i payload
    end
    else sign_acc payload
  in
  let verify ~signer ~msg ~signature =
    if mac_wire then begin
      ctr.c_hmacs <- ctr.c_hmacs + 1;
      ctr.c_hmac_ns <- ctr.c_hmac_ns + mac_costs.Scheme.verify_ns;
      Cpu.extend node.node_cpu (Simtime.ns mac_costs.Scheme.verify_ns);
      Keyring.verify_vector t.keyring ~verifier:i ~signer ~msg ~signature
    end
    else verify_acc ~signer ~msg ~signature
  in
  let digest_charge n =
    ctr.c_digest_bytes <- ctr.c_digest_bytes + n;
    ctr.c_digest_ns <- ctr.c_digest_ns + (n * costs.Scheme.digest_ns_per_byte);
    Cpu.extend node.node_cpu (Simtime.ns (n * costs.Scheme.digest_ns_per_byte))
  in
  (* SC/SCR reuse the Order body for two distinct phases: the un-endorsed
     1-to-1 endorse hop and the endorsed 2-to-n dissemination.  The
     endorsement marker splits them so the phase breakdown can map tags to
     phases per protocol. *)
  let count_send env ~copies ~size =
    let tag =
      P.Message.body_tag env.P.Message.body
      ^ (match env.P.Message.endorsement with Some _ -> "+endorsed" | None -> "")
    in
    let msgs, bytes =
      match Hashtbl.find_opt node.node_sends tag with
      | Some cell -> cell
      | None ->
        let cell = (ref 0, ref 0) in
        Hashtbl.replace node.node_sends tag cell;
        cell
    in
    msgs := !msgs + copies;
    bytes := !bytes + (copies * size)
  in
  let send ~dst env =
    let payload = P.Message.encode env in
    node.node_encodes <- node.node_encodes + 1;
    count_send env ~copies:1 ~size:(String.length payload);
    let cost = Cost_model.send_cost Cost_model.default ~size:(String.length payload) in
    Cpu.submit node.node_cpu ~cost (fun () -> transport_send t ~src:i ~dst payload)
  in
  let multicast ~dsts env =
    let payload = P.Message.encode env in
    node.node_encodes <- node.node_encodes + 1;
    count_send env ~copies:(List.length dsts) ~size:(String.length payload);
    let cost = Cost_model.send_cost Cost_model.default ~size:(String.length payload) in
    List.iter
      (fun dst ->
        Cpu.submit node.node_cpu ~cost (fun () ->
            transport_send t ~src:i ~dst payload))
      dsts
  in
  let set_timer ?kind:_ ~delay k =
    let h = Engine.schedule t.engine ~delay k in
    { P.Context.cancel = (fun () -> Engine.cancel h) }
  in
  let emit ev = t.event_log <- (Engine.now t.engine, i, ev) :: t.event_log in
  {
    P.Context.id = i;
    now = (fun () -> Engine.now t.engine);
    sign;
    verify;
    sign_acc;
    verify_acc;
    digest_charge;
    images = t.images;
    batches = t.batches;
    send;
    multicast;
    set_timer;
    emit;
    store =
      Option.map
        (fun wal -> { P.Context.wal; charge_io = (fun size -> charge_disk_write t i ~size) })
        node.node_wal;
  }

let fault_for spec i =
  match List.assoc_opt i spec.faults with Some f -> f | None -> P.Fault.Honest

(* Under [durable] the kernel has synced the batch's log entry before the
   reply is recorded, so every reply the harness counts is backed by a
   sector the replica can replay after a crash. *)
let record_reply t i (r : Request.t) reply =
  match Request.Key_tbl.find_opt t.replies r.Request.key with
  | Some cell -> cell := (i, reply) :: !cell
  | None -> Request.Key_tbl.replace t.replies r.Request.key (ref [ (i, reply) ])

let build spec =
  let scheme = Replica.scheme spec.kind spec.scheme in
  let config =
    P.Config.make ~kind:spec.kind ~batching_interval:spec.batching_interval
      ~batch_size_limit:spec.batch_size_limit ~digest:scheme.Scheme.digest
      ~pair_delay_estimate:spec.pair_delay_estimate
      ~heartbeat_interval:spec.heartbeat_interval
      ~dumb_optimization:spec.dumb_optimization
      ~checkpoint_interval:spec.checkpoint_interval ~timing:spec.timing ~f:spec.f ()
  in
  let n = P.Config.process_count config in
  let engine = Engine.create ~seed:spec.seed () in
  let net_rng = Engine.fork_rng engine in
  let key_rng = Engine.fork_rng engine in
  let net =
    Network.create ~engine ~rng:net_rng ~node_count:n ~default_delay:Delay_model.lan_default
  in
  let chan =
    if spec.use_channel then Some (Channel.attach ~config:Channel.default_config net)
    else None
  in
  (* The adversary's RNG is forked only when a wire fault asks for one, so
     seeded non-Byzantine runs keep the exact stream layout of older runs. *)
  let adversary =
    if Adversary.wanted spec.faults then
      Some (Adversary.create ~rng:(Engine.fork_rng engine) ~faults:spec.faults)
    else None
  in
  (match adversary with Some adv -> Adversary.install adv net | None -> ());
  (* Timing comes from the scheme's cost model; the signature bytes come
     from the real mechanism only when [real_crypto] is set — otherwise
     HMAC stands in so a 20-second simulated run doesn't pay thousands of
     real RSA exponentiations (see Scheme's documentation). *)
  let wire_scheme =
    if spec.real_crypto then scheme
    else
      match scheme.Scheme.mechanism with
      | Scheme.Unsigned | Scheme.Mock_hmac | Scheme.Mac_vector -> scheme
      | Scheme.Rsa _ | Scheme.Dsa _ -> { scheme with Scheme.mechanism = Scheme.Mock_hmac }
  in
  (* Under [auth = Sign] no MAC matrix is provisioned and the dealer's RNG
     consumption is unchanged, so seeded trajectories of older runs are
     preserved bit-for-bit. *)
  let keyring =
    Keyring.create ~auth:spec.auth ~scheme:wire_scheme ~rng:key_rng ~node_count:n ()
  in
  let cuts = Wal.Cuts.create () in
  let nodes =
    Array.init n (fun i ->
        let node_disk =
          if spec.durable then
            let atlas =
              match spec.disk_profile with
              | Some profile when i >= 1 && i <= spec.f ->
                Some
                  (Fault_atlas.make ~seed:(Int64.to_int spec.seed) ~replica:i
                     profile)
              | _ -> None
            in
            Some
              (Sim_disk.create ?atlas ~sector_size:disk_sector_size
                 ~sector_count:disk_sector_count ())
          else None
        in
        {
          node_cpu = Cpu.create engine;
          node_crypto =
            {
              c_signs = 0;
              c_verifies = 0;
              c_hmacs = 0;
              c_sign_ns = 0;
              c_verify_ns = 0;
              c_hmac_ns = 0;
              c_verify_cached = 0;
              c_digest_bytes = 0;
              c_digest_ns = 0;
            };
          node_sends = Hashtbl.create 16;
          node_encodes = 0;
          node_decodes = 0;
          node_disk;
          node_wal = Option.map (fun sd -> Wal.attach ~cuts (Sim_disk.disk sd)) node_disk;
          node_slow_prior = 0;
        })
  in
  let t =
    {
      spec = { spec with scheme };
      engine;
      net;
      chan;
      adversary;
      keyring;
      issued = Issued.create keyring;
      images = P.Checkpoint.Images.create ();
      batches = P.Checkpoint.Images.create ~window:P.Checkpoint.batch_window ();
      cuts;
      config;
      nodes;
      procs = [||];
      event_log = [];
      replies = Request.Key_tbl.create 256;
    }
  in
  (* Fast links inside each pair, both directions. *)
  List.iter
    (fun (p, s) ->
      Network.set_link net ~src:p ~dst:s spec.pair_link;
      Network.set_link net ~src:s ~dst:p spec.pair_link)
    (P.Config.pairs config);
  t.procs <-
    Replica.spawn ~config ~keyring ~fault:(fault_for spec) ~machine:(spec.machine_factory ())
      ~on_reply:(record_reply t) (make_context t);
  (* Inbound path: network -> CPU (receive cost) -> decode -> protocol. *)
  for i = 0 to n - 1 do
    let node = t.nodes.(i) and p = t.procs.(i) in
    set_transport_handler t i (fun ~src payload ->
        let cost =
          Cost_model.recv_cost Cost_model.default
            ~backlog:(Cpu.queue_delay node.node_cpu)
            ~size:(String.length payload)
        in
        Cpu.submit node.node_cpu ~cost (fun () ->
            node.node_decodes <- node.node_decodes + 1;
            match P.Message.decode payload with
            | env -> Replica.on_message p ~src env
            | exception Sof_util.Codec.Reader.Truncated -> ()))
  done;
  Array.iter Replica.start t.procs;
  t

let inject_request t req =
  let payload_size = Request.encoded_size req in
  Array.iteri
    (fun i node ->
      let cost =
        Cost_model.recv_cost Cost_model.default
          ~backlog:(Cpu.queue_delay node.node_cpu)
          ~size:payload_size
      in
      Cpu.submit node.node_cpu ~cost (fun () -> Replica.on_request t.procs.(i) req))
    t.nodes

let replies_for t key =
  match Request.Key_tbl.find_opt t.replies key with Some cell -> !cell | None -> []

let reply_certificate t key =
  (* The state-machine-replication acceptance rule: a client trusts a reply
     vouched for by f+1 distinct replicas (at least one is correct). *)
  let by_reply = Hashtbl.create 4 in
  List.iter
    (fun (node, reply) ->
      let voters = Option.value (Hashtbl.find_opt by_reply reply) ~default:[] in
      if not (List.mem node voters) then Hashtbl.replace by_reply reply (node :: voters))
    (replies_for t key);
  Hashtbl.fold
    (fun reply voters acc ->
      if List.length voters >= t.spec.f + 1 then Some reply else acc)
    by_reply None

type storage_totals = {
  sg_appends : int;
  sg_syncs : int;
  sg_checkpoint_writes : int;
  sg_dropped : int;
  sg_replays : int;
  sg_replayed_entries : int;
  sg_damaged_replays : int;
  sg_lost_writes : int;
  sg_misdirected : int;
  sg_torn : int;
  sg_corrupt_reads : int;
  sg_slow_ops : int;
}

let storage_totals t =
  if not t.spec.durable then None
  else begin
    let appends = ref 0 and syncs = ref 0 and checkpoints = ref 0 and dropped = ref 0 in
    let lost = ref 0 and misdirected = ref 0 and torn = ref 0 in
    let corrupt = ref 0 and slow = ref 0 in
    Array.iter
      (fun node ->
        (match node.node_wal with
        | Some wal ->
          let s = Wal.stats wal in
          appends := !appends + s.Wal.w_appends;
          syncs := !syncs + s.Wal.w_syncs;
          checkpoints := !checkpoints + s.Wal.w_checkpoints;
          dropped := !dropped + s.Wal.w_dropped
        | None -> ());
        match node.node_disk with
        | Some sd ->
          let s = Sim_disk.stats sd in
          lost := !lost + s.Sim_disk.sd_lost;
          misdirected := !misdirected + s.Sim_disk.sd_misdirected;
          torn := !torn + s.Sim_disk.sd_torn;
          corrupt := !corrupt + s.Sim_disk.sd_corrupt_reads;
          slow := !slow + s.Sim_disk.sd_slow_ops
        | None -> ())
      t.nodes;
    let replays, entries, damaged =
      List.fold_left
        (fun ((r, e, d) as acc) (_, _, ev) ->
          match ev with
          | P.Context.Wal_replayed { entries; damaged; _ } ->
            (r + 1, e + entries, if damaged then d + 1 else d)
          | _ -> acc)
        (0, 0, 0) t.event_log
    in
    Some
      {
        sg_appends = !appends;
        sg_syncs = !syncs;
        sg_checkpoint_writes = !checkpoints;
        sg_dropped = !dropped;
        sg_replays = replays;
        sg_replayed_entries = entries;
        sg_damaged_replays = damaged;
        sg_lost_writes = !lost;
        sg_misdirected = !misdirected;
        sg_torn = !torn;
        sg_corrupt_reads = !corrupt;
        sg_slow_ops = !slow;
      }
  end
