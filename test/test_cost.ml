(* The golden cost table: host-independent crypto charges per protocol.

   Each row runs one seed-1 fail-free cluster at f = 2 on the steady
   benchmark's settings (md5-rsa1024 cost table, 100 ms batching, 1 KB
   batches, 30 s pair estimate, no heartbeats), 400 req/s for 2 s, run to
   3 s, and records the whole cluster's crypto counters: scheme signs and
   verifies, verifies answered by the amortization cache, MAC-vector
   operations and digested bytes.  The three auth variants are the plain
   signed wire, signed with [amortize_verify], and MAC authenticator
   vectors.  A second table, the recovery rows below, pins the traffic
   of probes, checkpoints and state transfer, the write-ahead log, the
   checkpoint image digests, the KV merges and the image sector cuts, and
   its traffic rows the same run's messages, codec calls, engine events,
   envelope decodes and KV operation decodes; a third, the wal rows, pins
   every disk call the log itself makes; a fourth, the check rows, pins
   every counter of the model checker's searches.  A change that moves a
   count re-records cost.golden and says why; a host-side speedup must
   leave it byte-identical, except for the checker's [replays], the
   recovery rows' image hash passes, KV merges and sector cuts made, and
   the traffic rows' envelopes and operations decoded. *)

module Simtime = Sof_sim.Simtime
module H = Sof_harness
module Cluster = H.Cluster
module Images = Sof_protocol.Checkpoint.Images
module Memo = Sof_smr.Kv_store.Memo
module Wal = Sof_storage.Wal

type variant = Signed | Amortized | Mac

let variant_name = function Signed -> "sign" | Amortized -> "amortized" | Mac -> "mac"

let spec ~kind variant =
  let base =
    {
      (Cluster.default_spec ~kind ~f:2) with
      Cluster.scheme = Sof_crypto.Scheme.md5_rsa1024;
      batching_interval = Simtime.ms 100;
      batch_size_limit = 1024;
      pair_delay_estimate = Simtime.sec 30;
      heartbeat_interval = Simtime.sec 3600;
    }
  in
  match variant with
  | Signed -> base
  | Amortized -> { base with Cluster.amortize_verify = true }
  | Mac -> { base with Cluster.auth = Sof_crypto.Keyring.Mac }

let row ~kind variant =
  let c = Cluster.build (spec ~kind variant) in
  H.Workload.install c (H.Workload.make ~rate_per_sec:400.0 ()) ~duration:(Simtime.sec 2);
  Cluster.run c ~until:(Simtime.sec 3);
  let batches =
    List.length
      (List.filter
         (function _, _, Sof_protocol.Context.Batched _ -> true | _ -> false)
         (Cluster.events c))
  in
  let k = Cluster.total_crypto_counts c in
  Printf.sprintf "%-4s %-9s %7d %7d %8d %7d %7d %12d"
    (Sof_protocol.Replica.name kind) (variant_name variant) batches k.H.Trace.signs
    k.H.Trace.verifies k.H.Trace.verify_cached k.H.Trace.hmacs k.H.Trace.digest_bytes

let header =
  Printf.sprintf "%-4s %-9s %7s %7s %8s %7s %7s %12s" "#" "auth" "batches" "signs"
    "verifies" "cached" "hmacs" "digest_bytes"

let actual () =
  header
  :: List.concat_map
       (fun kind -> List.map (row ~kind) [ Signed; Amortized; Mac ])
       Cluster.[ Sc_protocol; Scr_protocol; Bft_protocol; Ct_protocol ]

(* The recovery rows: a seed-1 f = 1 slice that runs the traffic the
   fail-free rows never do.  Checkpoints every 8 deliveries over durable
   logs, adaptive timing with 50 ms batching and heartbeats and a 400 ms
   pair estimate, 150 req/s for 5 s.  The highest-numbered non-shadow
   replica crashes at 1 s and restarts at 2 s; process 0, the first
   coordinator, crashes at 3 s; the run ends at 6 s.  Each row records the
   batches minted, messages and bytes of the probe, checkpoint and
   state-transfer tags, the write-ahead log's appends and syncs, the image
   digests the replicas charged (summed over replicas) and the hash passes
   the cluster's image memo made for them, and the KV merges the replicas'
   stores asked for (summed over replicas) and the merges their shared
   memo made for them, and the long pieces (images and full batches'
   entries) the logs staged (summed over logs) and the pieces the
   cluster's cut memo cut into sectors for them.  A second row per
   protocol, the traffic row, records messages and bytes per request,
   envelope encodes and payloads received per message, engine events per
   request, the envelopes the cluster's memo actually decoded per message,
   and the operations the stores applied (summed over stores) and the ones
   their shared memo decoded for them; a request is a client request some
   process delivered. *)

let recovery_tags = [ "probe"; "probe_reply"; "checkpoint"; "state_request"; "state_response" ]

(* The cluster and the memo its stores share. *)
let recovery_cluster kind =
  let memo = Memo.create () in
  let c =
    Cluster.build
      {
        (Cluster.default_spec ~kind ~f:1) with
        Cluster.machine_factory = (fun () () -> Sof_smr.Kv_store.machine ~memo ());
        batching_interval = Simtime.ms 50;
        heartbeat_interval = Simtime.ms 50;
        pair_delay_estimate = Simtime.ms 400;
        checkpoint_interval = 8;
        durable = true;
        timing = Sof_protocol.Config.Adaptive;
      }
  in
  let at s f = ignore (Sof_sim.Engine.schedule_at (Cluster.engine c) ~at:(Simtime.sec s) f) in
  let last = Sof_protocol.Config.replica_count (Cluster.config c) - 1 in
  H.Workload.install c (H.Workload.make ~rate_per_sec:150.0 ()) ~duration:(Simtime.sec 5);
  at 1 (fun () -> Cluster.crash c last);
  at 2 (fun () -> Cluster.restart c last);
  at 3 (fun () -> Cluster.crash c 0);
  (c, memo)

let recovery_run kind =
  let ((c, _) as run) = recovery_cluster kind in
  Cluster.run c ~until:(Simtime.sec 6);
  run

let slice_name c = Sof_protocol.Replica.name (Cluster.spec c).Cluster.kind

let recovery_row (c, memo) =
  let batches =
    List.length
      (List.filter
         (function _, _, Sof_protocol.Context.Batched _ -> true | _ -> false)
         (Cluster.events c))
  in
  let sends = Cluster.total_send_counts c in
  let tag name =
    match List.find_opt (fun (m : H.Trace.msg_count) -> String.equal m.H.Trace.tag name) sends with
    | Some m -> Printf.sprintf " %5d %7d" m.H.Trace.msgs m.H.Trace.bytes
    | None -> Printf.sprintf " %5d %7d" 0 0
  in
  let appends, syncs =
    match Cluster.storage_totals c with
    | Some sg -> (sg.Cluster.sg_appends, sg.Cluster.sg_syncs)
    | None -> (0, 0)
  in
  let images = Cluster.images c in
  let cuts = Cluster.cuts c in
  Printf.sprintf "%-4s %-9s %7d%s %7d %7d %8d %8d %8d %8d %8d %8d" (slice_name c) "recovery"
    batches
    (String.concat "" (List.map tag recovery_tags))
    appends syncs (Images.asked images) (Images.computed images)
    (Memo.merges_asked memo) (Memo.merged memo) (Wal.Cuts.asked cuts) (Wal.Cuts.cut cuts)

let recovery_header =
  Printf.sprintf "%-4s %-9s %7s%s %7s %7s %8s %8s %8s %8s %8s %8s" "#" "slice" "batches"
    (String.concat ""
       (List.map (fun t -> Printf.sprintf " %13s" t) recovery_tags))
    "appends" "syncs" "img_chg" "img_hash" "kv_ask" "kv_merge" "cut_ask" "cut_made"

let traffic_row (c, memo) =
  let delivered = Hashtbl.create 1024 in
  List.iter
    (function
      | _, _, Sof_protocol.Context.Delivered { batch; _ } ->
        List.iter (fun k -> Hashtbl.replace delivered k ()) (Sof_protocol.Batch.keys batch)
      | _ -> ())
    (Cluster.events c);
  let msgs, bytes =
    List.fold_left
      (fun (m, b) (s : H.Trace.msg_count) -> (m + s.H.Trace.msgs, b + s.H.Trace.bytes))
      (0, 0) (Cluster.total_send_counts c)
  in
  let encodes, decodes = Cluster.codec_counts c in
  let per n d = float_of_int n /. float_of_int (max 1 d) in
  let requests = Hashtbl.length delivered in
  Printf.sprintf "%-4s %-9s %8d %9.3f %10.3f %8.4f %8.4f %10.3f %8.4f %8d %8d" (slice_name c)
    "traffic" requests (per msgs requests) (per bytes requests) (per encodes msgs)
    (per decodes msgs)
    (per (Sof_sim.Engine.events_fired (Cluster.engine c)) requests)
    (per (Cluster.envelope_decodes c) msgs)
    (Memo.ops_asked memo) (Memo.ops_decoded memo)

let traffic_header =
  Printf.sprintf "%-4s %-9s %8s %9s %10s %8s %8s %10s %8s %8s %8s" "#" "slice" "requests"
    "msgs/req" "bytes/req" "enc/msg" "dec/msg" "events/req" "env/msg" "op_ask" "op_dec"

(* The wal rows: the write-ahead log's disk traffic, call for call.  One
   scripted session runs through a recording {!Sof_storage.Disk.t} over the
   cluster's disk geometry: attach; 40 appends of 50-900 B, each synced,
   with a 20 KB checkpoint after every 10th; a crash and a remount; 10 more
   appends, unsynced; a reset.  Each row is one disk under the script:
   clean, and the seed-1 replica-1 atlases of the chaos mix and of slow
   sectors.  It records the disk's counters and a 32-bit FNV-1a over every
   call's op, sector and bytes, so a change to how the log stages, verifies
   or reads sectors that moves any disk operation moves the row. *)

module Disk = Sof_storage.Disk
module Sim_disk = Sof_storage.Sim_disk
module Fault_atlas = Sof_storage.Fault_atlas

let fnv h s =
  let h = ref h in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) s;
  !h

let recording (d : Disk.t) =
  let h = ref 0x811C9DC5 in
  let note op sector data =
    h := fnv (fnv !h (Printf.sprintf "%c%d:" op sector)) data
  in
  ( {
      d with
      Disk.read =
        (fun sector ->
          let data = d.Disk.read sector in
          note 'r' sector data;
          data);
      write =
        (fun sector data ->
          note 'w' sector data;
          d.Disk.write sector data);
      sync =
        (fun () ->
          note 's' 0 "";
          d.Disk.sync ());
    },
    h )

let wal_payload i len = String.init len (fun j -> Char.chr (((i * 131) + (j * 7)) land 0xff))
let wal_entry i = wal_payload i (50 + (i * 337 mod 851))

let wal_row (name, profile) =
  let atlas = Option.map (Fault_atlas.make ~seed:1 ~replica:1) profile in
  let sim = Sim_disk.create ?atlas ~sector_size:256 ~sector_count:8192 () in
  let disk, hash = recording (Sim_disk.disk sim) in
  let t = Wal.attach disk in
  for i = 1 to 40 do
    Wal.append t (wal_entry i);
    Wal.sync t;
    if Int.equal (i mod 10) 0 then begin
      (* In two pieces, cut mid-sector: the frame must stage as the joined
         payload would. *)
      let image = wal_payload i 20_000 in
      Wal.write_checkpoint t [ String.sub image 0 37; String.sub image 37 (20_000 - 37) ]
    end
  done;
  Sim_disk.crash sim;
  Wal.remount t;
  for i = 41 to 50 do
    Wal.append t (wal_entry i)
  done;
  Wal.reset t;
  let s = Sim_disk.stats sim in
  Printf.sprintf "%-4s %-9s %7d %7d %7d %7d %7d %7d %7d %7d %08x" "wal" name s.Sim_disk.sd_reads
    s.Sim_disk.sd_writes s.Sim_disk.sd_syncs s.Sim_disk.sd_lost s.Sim_disk.sd_misdirected
    s.Sim_disk.sd_torn s.Sim_disk.sd_corrupt_reads s.Sim_disk.sd_slow_ops !hash

let wal_header =
  Printf.sprintf "%-4s %-9s %7s %7s %7s %7s %7s %7s %7s %7s %8s" "#" "disk" "reads" "writes"
    "syncs" "lost" "misdir" "torn" "corrupt" "slow" "fnv"

let actual () =
  let runs =
    List.map recovery_run Cluster.[ Sc_protocol; Scr_protocol; Bft_protocol; Ct_protocol ]
  in
  actual ()
  @ (recovery_header :: List.map recovery_row runs)
  @ (traffic_header :: List.map traffic_row runs)
  @ wal_header
    :: List.map wal_row
         [
           ("clean", None);
           ("atlas", Some Fault_atlas.default);
           ("slow", Some Fault_atlas.slow_sectors);
         ]

(* The check rows: every {!Sof_check.Explore.stats} counter of a full
   search of each CI check-smoke model (the tiny sc, scr, bft and ct
   models, ct with one crash, the digest-blind bft mutant) and of the
   two-batch sc model at depth 12, the check workload's deep model.  Every
   column but [replays] is what the search explores and must not move
   without a change to a protocol core or to the reductions; [replays]
   (fresh worlds) is what it costs, and moves with a change to how the
   explorer materialises states. *)

let check_models =
  let module M = Sof_check.Model in
  [
    ("sc", M.default M.Sc, 40);
    ("scr", M.default M.Scr, 40);
    ("bft", M.default M.Bft, 40);
    ("ct", M.default M.Ct, 40);
    ("ct_crash1", { (M.default M.Ct) with M.crash_budget = 1 }, 40);
    ("bft_mutant", Test_check.mutant_spec, 40);
    ("sc_b2", { (M.default M.Sc) with M.batches = 2 }, 12);
  ]

let check_row (name, spec, depth) =
  let module E = Sof_check.Explore in
  let r = E.run spec ~depth in
  let s = r.E.stats in
  let outcome =
    match r.E.outcome with
    | E.Exhausted -> "exhausted"
    | E.Depth_capped -> "capped"
    | E.Violation _ -> "violation"
  in
  Printf.sprintf "%-5s %-10s %-9s %6d %6d %6d %6d %6d %6d %6d %7d" "check" name outcome
    s.E.states s.E.transitions s.E.pruned_visited s.E.pruned_sleep s.E.pruned_ample
    s.E.cap_hits s.E.max_depth s.E.replays

let check_header =
  Printf.sprintf "%-5s %-10s %-9s %6s %6s %6s %6s %6s %6s %6s %7s" "#" "model" "outcome"
    "states" "trans" "visitd" "sleep" "ample" "caps" "depth" "replays"

let actual () = actual () @ (check_header :: List.map check_row check_models)

(* Each boundary image's digest is computed once per cluster and kept
   beside it (or is the verified certificate's, for an image installed by
   state transfer); endorsing and stabilising compare the kept digest.  On
   the recovery slice, which restarts a replica through state transfer,
   every live replica's kept digest must be the digest of its kept image,
   midway and at the end; replicas that keep the same image at one
   boundary keep one string (the cluster's image memo hands it out); and
   every image kept midway must still digest to its kept digest at the end,
   so no shared string is written in place. *)
module Recovery = Sof_protocol.Recovery

let test_kept_digests () =
  List.iter
    (fun kind ->
      let name = Sof_protocol.Replica.name kind in
      let c, _ = recovery_cluster kind in
      let alg = (Cluster.config c).Sof_protocol.Config.digest in
      let digest_ok (image, digest) =
        String.equal digest (Sof_protocol.Checkpoint.image_digest alg image)
      in
      let kept = ref [] in
      let shared = ref 0 in
      let check_live () =
        let at_seq = Hashtbl.create 16 in
        for i = 0 to Cluster.process_count c - 1 do
          if not (Sof_net.Network.is_crashed (Cluster.network c) i) then begin
            let (Recovery.Kernel h) = Sof_protocol.Replica.kernel (Cluster.proc c i) in
            for seq = 1 to Cluster.delivered_seq c i do
              match Recovery.image_at h.Recovery.log.Recovery.rcv ~seq with
              | None -> ()
              | Some (image, digest) ->
                kept := (image, digest) :: !kept;
                if not (digest_ok (image, digest)) then
                  Alcotest.failf "%s p%d: kept digest of the image at %d is not its digest" name
                    i seq;
                (match Hashtbl.find_opt at_seq seq with
                | Some (j, other) when String.equal other image ->
                  if other != image then
                    Alcotest.failf "%s p%d and p%d keep two copies of the image at %d" name j i
                      seq;
                  incr shared
                | Some _ | None -> Hashtbl.replace at_seq seq (i, image))
            done
          end
        done
      in
      Cluster.run c ~until:(Simtime.sec 3);
      check_live ();
      Cluster.run c ~until:(Simtime.sec 6);
      check_live ();
      if !kept = [] then Alcotest.failf "%s: no kept image to check" name;
      if Int.equal !shared 0 then Alcotest.failf "%s: no image kept by two replicas" name;
      List.iter
        (fun k -> if not (digest_ok k) then Alcotest.failf "%s: a kept image changed" name)
        !kept)
    Cluster.[ Sc_protocol; Scr_protocol; Bft_protocol; Ct_protocol ]

let test_matches_golden () =
  let actual = actual () in
  let golden = Test_bench_doc.read_lines "cost.golden" in
  let out = Filename.concat (Filename.get_temp_dir_name ()) "cost.actual" in
  if actual <> golden then begin
    let oc = open_out out in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc
  end;
  Alcotest.(check (list string))
    (Printf.sprintf "crypto rows (diff %s against test/cost.golden)" out)
    golden actual

let suite =
  [
    ( "cost.golden",
      [
        Alcotest.test_case "crypto rows" `Slow test_matches_golden;
        Alcotest.test_case "kept image digests are the images' digests" `Slow
          test_kept_digests;
      ] );
  ]
