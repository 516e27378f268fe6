(* Pinned seeded trajectories for the four protocol cores.

   Each case runs one deterministic crash-restart cluster run at f = 1
   (50 ms batching, a checkpoint every 4 sequence numbers, 300 req/s for
   6 s, one process crashed at 2 s and restarted at 4 s, run to 8 s) and
   checks the FNV-1a digest and length of the whole event stream.  The
   digest covers every (virtual time, node, event) triple, so any change
   in message order, timer arming, CPU charging or emitted events shows
   up here.  A refactor of shared recovery, timing or pair code must keep
   every pin unchanged; a deliberate behaviour change re-records them and
   says why.

   The plain and durable runs crash the highest-numbered process (SC's
   first shadow, so the SC pins also cover the fail-over install).  The
   Byzantine-responder runs make process 1 serve stale checkpoints,
   corrupt checkpoint images or a corrupt log suffix to the restarted
   process. *)

module Simtime = Sof_sim.Simtime
module P = Sof_protocol
module H = Sof_harness
module Cluster = H.Cluster
module Fp = Sof_check.Fingerprint

type variant = Plain | Durable | Byzantine of P.Fault.t

let spec_of ~kind variant =
  let base =
    {
      (Cluster.default_spec ~kind ~f:1) with
      Cluster.batching_interval = Simtime.ms 50;
      checkpoint_interval = 4;
    }
  in
  let durable =
    { base with Cluster.durable = true; disk_profile = Some Sof_storage.Fault_atlas.default }
  in
  match variant with
  | Plain -> base
  | Durable -> { durable with Cluster.timing = P.Config.Adaptive }
  | Byzantine (P.Fault.Corrupt_wal_suffix as fault) ->
    { durable with Cluster.faults = [ (1, fault) ] }
  | Byzantine fault -> { base with Cluster.faults = [ (1, fault) ] }

let trajectory ~kind variant =
  let cluster = Cluster.build (spec_of ~kind variant) in
  let crashed =
    match variant with
    | Plain | Durable -> Cluster.process_count cluster - 1
    | Byzantine _ -> 2
  in
  H.Workload.install cluster (H.Workload.make ~rate_per_sec:300.0 ()) ~duration:(Simtime.sec 6);
  Cluster.run cluster ~until:(Simtime.sec 2);
  Cluster.crash cluster crashed;
  Cluster.run cluster ~until:(Simtime.sec 4);
  Cluster.restart cluster crashed;
  Cluster.run cluster ~until:(Simtime.sec 8);
  let events = Cluster.events cluster in
  let acc = Fp.create () in
  List.iter
    (fun (at, node, e) ->
      Fp.add_int acc (Simtime.to_ns at);
      Fp.add_int acc node;
      Fp.add_string acc (Fp.encode_event e))
    events;
  (Printf.sprintf "%016Lx" (Fp.digest acc), List.length events)

let variant_name = function
  | Plain -> "plain"
  | Durable -> "durable adaptive"
  | Byzantine P.Fault.Stale_checkpoint -> "stale checkpoint"
  | Byzantine P.Fault.Corrupt_checkpoint_image -> "corrupt checkpoint image"
  | Byzantine P.Fault.Corrupt_wal_suffix -> "corrupt wal suffix"
  | Byzantine f -> Format.asprintf "%a" P.Fault.pp f

(* (protocol, run, event-stream digest, event count), recorded before the
   shared replica-kernel refactor. *)
let pins =
  [
    (Cluster.Sc_protocol, Plain, "a713f1a158eb9dee", 4806);
    (Cluster.Sc_protocol, Durable, "688bbd7cd057bfa7", 2064);
    (Cluster.Sc_protocol, Byzantine P.Fault.Stale_checkpoint, "cf25aa3d26bbf8be", 5723);
    (Cluster.Sc_protocol, Byzantine P.Fault.Corrupt_checkpoint_image, "59236e6f60ab9b58", 5722);
    (Cluster.Sc_protocol, Byzantine P.Fault.Corrupt_wal_suffix, "7a5223d02673e906", 5720);
    (Cluster.Scr_protocol, Plain, "a318039b22115206", 6831);
    (Cluster.Scr_protocol, Durable, "1bcb90b4b2aff1e1", 6884);
    (Cluster.Scr_protocol, Byzantine P.Fault.Stale_checkpoint, "8727a4ed5786be3c", 6781);
    (Cluster.Scr_protocol, Byzantine P.Fault.Corrupt_checkpoint_image, "b5a26cc6056f94dd", 6782);
    (Cluster.Scr_protocol, Byzantine P.Fault.Corrupt_wal_suffix, "b888f192141bbfd3", 6795);
    (Cluster.Bft_protocol, Plain, "eaa80518b15cd473", 6142);
    (Cluster.Bft_protocol, Durable, "579eb5d7f74c4591", 6186);
    (Cluster.Bft_protocol, Byzantine P.Fault.Stale_checkpoint, "ea45e0e5495c2d62", 6149);
    (Cluster.Bft_protocol, Byzantine P.Fault.Corrupt_checkpoint_image, "ddb59c2f3ad47ddd", 6142);
    (Cluster.Bft_protocol, Byzantine P.Fault.Corrupt_wal_suffix, "a1916ef65f87d62e", 6185);
    (Cluster.Ct_protocol, Plain, "165ab7e22424acdb", 3510);
    (Cluster.Ct_protocol, Durable, "d8a2a959b8e9a64d", 3520);
  ]

let pin (kind, variant, digest, length) =
  let name = Sof_protocol.Replica.name kind ^ " " ^ variant_name variant in
  Alcotest.test_case name `Slow (fun () ->
      let d, n = trajectory ~kind variant in
      Alcotest.(check int) (name ^ ": event count") length n;
      Alcotest.(check string) (name ^ ": event digest") digest d)

let suite = [ ("trajectory", List.map pin pins) ]
