(* The system under test, as the benchmark sees it.

   Every call the benchmark makes into the program goes through this file,
   and every program type it needs is translated here into a plain
   benchmark-owned value.  When the program's API changes, this adapter is the
   one file a benchmark update has to touch. *)

module H = Sof_harness
module P = Sof_protocol
module Simtime = Sof_sim.Simtime
module Request = Sof_smr.Request
module Json = Sof_util.Json

type key = int * int
(** A request's identity: (client, client sequence number). *)

type protocol = Sc | Scr | Bft | Ct

let protocols = [ Sc; Scr; Bft; Ct ]
let protocol_name = function Sc -> "sc" | Scr -> "scr" | Bft -> "bft" | Ct -> "ct"

let kind = function
  | Sc -> H.Cluster.Sc_protocol
  | Scr -> H.Cluster.Scr_protocol
  | Bft -> H.Cluster.Bft_protocol
  | Ct -> H.Cluster.Ct_protocol

(* ------------------------------------------------------------ requests *)

type request = Request.t

let rng seed = Sof_util.Rng.create seed
let exponential rng ~mean = Sof_util.Rng.exponential rng ~mean
let uniform_int rng bound = Sof_util.Rng.int rng bound

let make_request rng ~client ~client_seq =
  H.Workload.make_request rng ~client ~client_seq ~op_bytes:80

let request_key (r : request) = (r.Request.key.Request.client, r.Request.key.Request.client_seq)

(* ----------------------------------------------------------- simulator *)

(* Both simulator workloads run f = 2: SC 3f+1 = 7 processes, SCR 3f+2 = 8,
   BFT 3f+1 = 7, CT 2f+1 = 5. *)
let sim_f = 2

type profile =
  | Steady
      (** The Fig 4/5 fail-free settings: 100 ms batching, 1 KB batches,
          md5-rsa1024 cost table, 30 s pair estimate, heartbeats off. *)
  | Failover
      (** The default timers (25 ms heartbeat, 100 ms pair estimate) with a
          write-ahead log per node and a checkpoint every 8 sequences. *)

let spec ~profile ~protocol =
  let base = H.Cluster.default_spec ~kind:(kind protocol) ~f:sim_f in
  match profile with
  | Steady ->
    {
      base with
      H.Cluster.scheme = Sof_crypto.Scheme.md5_rsa1024;
      batching_interval = Simtime.ms 100;
      batch_size_limit = 1024;
      pair_delay_estimate = Simtime.sec 30;
      heartbeat_interval = Simtime.sec 3600;
    }
  | Failover -> { base with H.Cluster.durable = true; checkpoint_interval = 8 }

let build ~profile ~protocol = H.Cluster.build (spec ~profile ~protocol)
let process_count = H.Cluster.process_count
let engine c = H.Cluster.engine c

let at_ms c ms thunk =
  ignore (Sof_sim.Engine.schedule_at (engine c) ~at:(Simtime.of_ms_float ms) thunk)

let inject = H.Cluster.inject_request
let crash = H.Cluster.crash
let restart = H.Cluster.restart
let run c ~until_ms = H.Cluster.run c ~until:(Simtime.of_ms_float until_ms)
let events_fired c = Sof_sim.Engine.events_fired (engine c)
let pending c = Sof_sim.Engine.pending (engine c)

let on_deliver c f =
  Sof_net.Network.on_deliver (H.Cluster.network c) (fun ~src:_ ~dst:_ ~payload -> f payload)

let messages_delivered c =
  (Sof_net.Network.stats (H.Cluster.network c)).Sof_net.Network.messages_delivered

(** The protocol events the benchmark reduces, stripped of everything it
    does not read. *)
type ev =
  | Batched of { seq : int; requests : int }
  | Committed of { seq : int; keys : key list }
  | Delivered of { keys : key list }

type row = { t_ms : float; proc : int; ev : ev }

let keys_of l = List.map (fun k -> (k.Request.client, k.Request.client_seq)) l

(** The event log's length, and its batch, commit and delivery rows in
    emission order. *)
let events c =
  let all = H.Cluster.events c in
  let rows =
    List.filter_map
      (fun (t, proc, e) ->
        let row ev = Some { t_ms = Simtime.to_ms t; proc; ev } in
        match e with
        | P.Context.Batched { seq; requests; _ } -> row (Batched { seq; requests })
        | P.Context.Committed { seq; keys; _ } -> row (Committed { seq; keys = keys_of keys })
        | P.Context.Delivered { batch; _ } ->
          row (Delivered { keys = keys_of (P.Batch.keys batch) })
        | _ -> None)
      all
  in
  (List.length all, rows)

(** Whole-run sends: (wire tag, messages, bytes), summed over processes. *)
let sends c =
  List.map
    (fun m -> (m.H.Trace.tag, m.H.Trace.msgs, m.H.Trace.bytes))
    (H.Cluster.total_send_counts c)

type crypto = { signs : int; verifies : int; digest_bytes : int }

let crypto c =
  let t = H.Cluster.total_crypto_counts c in
  { signs = t.H.Trace.signs; verifies = t.H.Trace.verifies; digest_bytes = t.H.Trace.digest_bytes }

type storage = { appends : int; syncs : int; checkpoint_writes : int; replayed_entries : int }

let storage c =
  match H.Cluster.storage_totals c with
  | None -> { appends = 0; syncs = 0; checkpoint_writes = 0; replayed_entries = 0 }
  | Some s ->
    {
      appends = s.H.Cluster.sg_appends;
      syncs = s.H.Cluster.sg_syncs;
      checkpoint_writes = s.H.Cluster.sg_checkpoint_writes;
      replayed_entries = s.H.Cluster.sg_replayed_entries;
    }

type recovery = {
  local_replays : int;
  transfers_installed : int;
  stable : int;
  truncations : int;
  max_log : int;
}

let recovery c =
  let r = H.Metrics.recovery_stats c in
  {
    local_replays = r.H.Metrics.rc_local_replays;
    transfers_installed = r.H.Metrics.rc_transfers_installed;
    stable = r.H.Metrics.rc_checkpoints_stable;
    truncations = r.H.Metrics.rc_truncations;
    max_log = r.H.Metrics.rc_max_log_length;
  }

(** Mean cluster-wide width of each critical-path phase, in virtual ms. *)
let phases c =
  List.map
    (fun ps -> (P.Context.phase_name ps.H.Metrics.ps_phase, ps.H.Metrics.ps_mean_width_ms))
    (H.Metrics.phase_breakdown c).H.Metrics.bd_phases

type verdict = { name : string; pass : bool; detail : string }

let verdict r =
  { name = r.H.Invariants.name; pass = r.H.Invariants.pass; detail = r.H.Invariants.detail }

let key_set keys =
  List.fold_left
    (fun s (client, client_seq) -> Request.Key_set.add { Request.client; client_seq } s)
    Request.Key_set.empty keys

(** The safety checks of a fail-free run. *)
let steady_battery c ~injected =
  let honest = List.init (process_count c) Fun.id in
  let injected = key_set injected in
  List.map verdict
    [
      H.Invariants.agreement c ~honest;
      H.Invariants.prefix_consistency c ~honest;
      H.Invariants.validity c ~honest ~injected;
    ]

(** The crash-restart battery: safety, that every restarted node rejoined,
    and that the processes still up at the end ([down] excluded) hold every
    certified reply and agree on state. *)
let failover_battery c ~injected ~down =
  let all = List.init (process_count c) Fun.id in
  let live = List.filter (fun i -> not (List.mem i down)) all in
  let injected = key_set injected in
  let by = Sof_sim.Engine.now (engine c) in
  List.map verdict
    [
      H.Invariants.agreement c ~honest:all;
      H.Invariants.prefix_consistency c ~honest:all;
      H.Invariants.validity c ~honest:all ~injected;
      H.Invariants.durability c ~live ~injected;
      H.Invariants.checkpoint_agreement c ~honest:all;
      H.Invariants.recovery_liveness c ~by;
      H.Invariants.repair_correctness c ~live;
    ]

(* ------------------------------------------------- layer replay (trace) *)

(* The codec, crypto, storage and service layers are timed by replaying
   wire payloads captured during a traced run through their public
   functions, outside the simulator. *)

type envelope = P.Message.envelope

let decode payload = P.Message.decode payload
let encode env = P.Message.encode env
let tag (env : envelope) = P.Message.body_tag env.P.Message.body
let body_bytes (env : envelope) = P.Message.encode_body env.P.Message.body

(** A keyring like the steady cluster's: md5-rsa1024 timing with HMAC
    standing in for the signature bytes. *)
let replay_signer () =
  let scheme =
    let open Sof_crypto.Scheme in
    { md5_rsa1024 with mechanism = Mock_hmac }
  in
  let ring = Sof_crypto.Keyring.create ~scheme ~rng:(rng 7L) ~node_count:2 () in
  let sign msg = Sof_crypto.Keyring.sign ring ~signer:0 msg in
  let verify msg signature = Sof_crypto.Keyring.verify ring ~signer:0 ~msg ~signature in
  (sign, verify)

(** A write-ahead log on a fresh simulated disk of a cluster node's size. *)
let fresh_wal () =
  let disk = Sof_storage.Sim_disk.create ~sector_size:256 ~sector_count:8192 () in
  let wal = Sof_storage.Wal.attach (Sof_storage.Sim_disk.disk disk) in
  (Sof_storage.Wal.append wal, fun () -> Sof_storage.Wal.sync wal)

let kv_apply () =
  let m = Sof_smr.Kv_store.machine () in
  fun (r : request) -> ignore (Sof_smr.State_machine.apply m r.Request.op)

(* ------------------------------------------------------------ runtime *)

(* f = 1: SC's 3f+1 = 4 processes, on ports [base_port, base_port + 4). *)
let tcp_start ~base_port =
  Sof_runtime.Tcp_runtime.start ~base_port ~batching_interval_ms:2 ~kind:`Sc ~f:1 ()

let tcp_inject = Sof_runtime.Tcp_runtime.inject

(** The fewest batches any replica has delivered so far. *)
let tcp_min_delivered t =
  (* [await_delivery] with a past deadline checks once, without waiting. *)
  let reached count = Sof_runtime.Tcp_runtime.await_delivery t ~count ~timeout_s:(-1.0) in
  let rec up hi = if reached hi then up (2 * hi) else hi in
  (* [lo] reached, [hi] not. *)
  let rec search lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if reached mid then search mid hi else search lo mid
  in
  let hi = up 1 in
  search (hi / 2) hi

type tcp_result = {
  latencies_ms : float list;  (** inject to first delivery, one per delivered request *)
  replicas : (int * string) list;  (** per replica: batches delivered, state digest *)
  peer_downs : int;
}

let tcp_stop t =
  let peer_downs = List.length (Sof_runtime.Tcp_runtime.peer_downs t) in
  let s = Sof_runtime.Tcp_runtime.stop t in
  {
    latencies_ms = s.Sof_runtime.Tcp_runtime.commit_latencies_ms;
    replicas =
      List.map2
        (fun (_, batches) (_, digest) -> (batches, digest))
        s.Sof_runtime.Tcp_runtime.delivered s.Sof_runtime.Tcp_runtime.state_digests;
    peer_downs;
  }

(* ------------------------------------------------------------- checker *)

type expect = Exhausts | Convicted | Clean

type model = { m_name : string; m_spec : Sof_check.Model.spec; m_depth : int; m_expect : expect }

(** The CI check-smoke models, plus one deeper two-batch SC model, with
    keys derived from [seed]. *)
let models ~seed ~deep_depth =
  let module M = Sof_check.Model in
  let d p = { (M.default p) with M.seed } in
  [
    { m_name = "sc"; m_spec = d M.Sc; m_depth = 40; m_expect = Exhausts };
    { m_name = "scr"; m_spec = d M.Scr; m_depth = 40; m_expect = Exhausts };
    { m_name = "bft"; m_spec = d M.Bft; m_depth = 40; m_expect = Exhausts };
    { m_name = "ct"; m_spec = d M.Ct; m_depth = 40; m_expect = Exhausts };
    {
      m_name = "ct_crash1";
      m_spec = { (d M.Ct) with M.crash_budget = 1 };
      m_depth = 40;
      m_expect = Exhausts;
    };
    {
      m_name = "bft_mutant";
      m_spec = { (d M.Bft) with M.digest_blind = true; equivocate = Some 1 };
      m_depth = 40;
      m_expect = Convicted;
    };
    {
      m_name = "sc_b2";
      m_spec = { (d M.Sc) with M.batches = 2 };
      m_depth = deep_depth;
      m_expect = Clean;
    };
  ]

type exploration = { met : bool; states : int; replays : int }

let explore m =
  let r = Sof_check.Explore.run m.m_spec ~depth:m.m_depth in
  let met =
    match (m.m_expect, r.Sof_check.Explore.outcome) with
    | Exhausts, Sof_check.Explore.Exhausted -> true
    | Convicted, Sof_check.Explore.Violation _ -> true
    | Clean, (Sof_check.Explore.Exhausted | Sof_check.Explore.Depth_capped) -> true
    | _ -> false
  in
  let s = r.Sof_check.Explore.stats in
  { met; states = s.Sof_check.Explore.states; replays = s.Sof_check.Explore.replays }

let world_build m = ignore (Sof_check.World.build m.m_spec)

(** Walk one schedule (always the first enabled action) from a fresh world,
    calling the per-state invariant battery at each state; returns the
    number of calls and the seconds they took. *)
let violation_walk m ~clock =
  let w = Sof_check.World.build m.m_spec in
  let rec go calls spent =
    let t0 = clock () in
    ignore (Sof_check.World.violation w);
    let spent = spent +. (clock () -. t0) in
    match Sof_check.World.enabled w with
    | a :: _ when calls < m.m_depth && Result.is_ok (Sof_check.World.apply w a) ->
      go (calls + 1) spent
    | _ -> (calls + 1, spent)
  in
  go 0 0.0
