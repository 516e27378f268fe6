module Simtime = Sof_sim.Simtime

(* Constructor-time validation failures surface as a dedicated exception
   caught at the harness/runtime boundary, never as a bare Invalid_argument
   escaping a protocol decision path (lint rule R4). *)
exception Invalid_config of string

type kind = Sc_protocol | Scr_protocol | Bft_protocol | Ct_protocol

type timing = Static | Adaptive

let timing_name = function Static -> "static" | Adaptive -> "adaptive"

type t = {
  kind : kind;
  f : int;
  batching_interval : Simtime.t;
  batch_size_limit : int;
  digest : Sof_crypto.Digest_alg.t;
  pair_delay_estimate : Simtime.t;
  heartbeat_interval : Simtime.t;
  dumb_optimization : bool;
  checkpoint_interval : int;
  timing : timing;
  unsafe_digest_blind_votes : bool;
}

let make ~kind ?(batching_interval = Simtime.ms 100) ?(batch_size_limit = 1024)
    ?(digest = Sof_crypto.Digest_alg.MD5) ?(pair_delay_estimate = Simtime.ms 10)
    ?(heartbeat_interval = Simtime.ms 20) ?(dumb_optimization = true)
    ?(checkpoint_interval = 0) ?(timing = Static) ?(unsafe_digest_blind_votes = false) ~f
    () =
  if f < 1 then raise (Invalid_config "Config.make: f must be at least 1");
  if checkpoint_interval < 0 then
    raise (Invalid_config "Config.make: checkpoint_interval must be non-negative");
  let positive name v =
    if Simtime.compare v Simtime.zero <= 0 then
      raise (Invalid_config (Printf.sprintf "Config.make: %s must be positive" name))
  in
  positive "batching_interval" batching_interval;
  positive "pair_delay_estimate" pair_delay_estimate;
  positive "heartbeat_interval" heartbeat_interval;
  {
    kind;
    f;
    batching_interval;
    batch_size_limit;
    (* CT keeps MD5 whatever it is given: it signs nothing, and the scheme
       it is handed ([Scheme.null]) digests with SHA-256. *)
    digest = (match kind with Ct_protocol -> Sof_crypto.Digest_alg.MD5 | _ -> digest);
    pair_delay_estimate;
    heartbeat_interval;
    dumb_optimization;
    checkpoint_interval;
    timing;
    unsafe_digest_blind_votes;
  }

(* The one layout: replicas 0 .. r-1, then the shadows, pair k (1-based)
   being (primary k-1, shadow r+k-1). *)
let replica_count t =
  match t.kind with
  | Bft_protocol -> (3 * t.f) + 1
  | Sc_protocol | Scr_protocol | Ct_protocol -> (2 * t.f) + 1

let pair_count t =
  match t.kind with
  | Sc_protocol -> t.f
  | Scr_protocol -> t.f + 1
  | Bft_protocol | Ct_protocol -> 0

let process_count t = replica_count t + pair_count t

let candidate_count t = if pair_count t > 0 then t.f + 1 else process_count t

let check_rank t r =
  if r < 1 || r > candidate_count t then
    raise (Invalid_config (Printf.sprintf "Config: candidate rank %d out of range" r))

let primary_of_pair t r =
  check_rank t r;
  r - 1

let shadow_of_pair t r =
  check_rank t r;
  if r > pair_count t then
    raise (Invalid_config "Config.shadow_of_pair: candidate is unpaired");
  replica_count t + r - 1

let pair_rank_of t id =
  if id < pair_count t then Some (id + 1)
  else if id >= replica_count t && id < process_count t then
    Some (id - replica_count t + 1)
  else None

let counterpart t id =
  match pair_rank_of t id with
  | None -> None
  | Some r ->
    Some (if id < replica_count t then shadow_of_pair t r else primary_of_pair t r)

let is_shadow t id = id >= replica_count t

let candidate_is_pair t r =
  check_rank t r;
  r <= pair_count t

let candidate_members t r =
  if candidate_is_pair t r then [ primary_of_pair t r; shadow_of_pair t r ]
  else [ primary_of_pair t r ]

let pairs t =
  List.init (pair_count t) (fun r -> (primary_of_pair t (r + 1), shadow_of_pair t (r + 1)))

let all_processes t = List.init (process_count t) Fun.id
