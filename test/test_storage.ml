(* Durable storage tests: write-ahead-log roundtrips, checkpoint
   truncation and epoch turn-over, crash semantics, damage detection
   (torn tails and corrupt sectors), the fault atlas, the file-backed
   disk, vote-tally pruning, and the end-to-end durability acceptance
   campaigns — whole-cluster blackout under a storage-fault atlas,
   recovered by local replay across every protocol. *)

module Simtime = Sof_sim.Simtime
module P = Sof_protocol
module H = Sof_harness
module Cluster = H.Cluster
module Checkpoint = P.Checkpoint
module Recovery = P.Recovery
module Replica = P.Replica
module Keyring = Sof_crypto.Keyring
module Disk = Sof_storage.Disk
module Sim_disk = Sof_storage.Sim_disk
module Wal = Sof_storage.Wal
module Fault_atlas = Sof_storage.Fault_atlas
module File_disk = Sof_runtime.File_disk
module Kv = Sof_smr.Kv_store

let sec = Simtime.sec

let fresh_disk ?atlas () =
  Sim_disk.create ?atlas ~sector_size:64 ~sector_count:64 ()

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> String.equal x y && is_prefix xs' ys'
  | _ :: _, [] -> false

(* The last sector of the active region holding any frame bytes — the
   natural target for a deterministic tear. *)
let last_data_sector disk =
  let nonzero s =
    String.exists (fun c -> not (Char.equal c '\000')) (Disk.read disk ~sector:s)
  in
  let found = ref None in
  for s = 2 to disk.Disk.sector_count - 1 do
    if nonzero s then found := Some s
  done;
  match !found with
  | Some s -> s
  | None -> Alcotest.fail "no data sectors written"

(* ------------------------------------------------------------------ wal *)

let test_wal_roundtrip () =
  let sim = fresh_disk () in
  let disk = Sim_disk.disk sim in
  let t = Wal.attach disk in
  let payloads = [ "alpha"; "beta"; ""; "gamma-with-a-longer-payload" ] in
  List.iter (Wal.append t) payloads;
  Wal.sync t;
  let t' = Wal.attach disk in
  let rp = Wal.replay t' in
  Alcotest.(check (list string)) "entries in append order" payloads rp.Wal.rp_entries;
  Alcotest.(check bool) "no checkpoint" true (Option.is_none rp.Wal.rp_checkpoint);
  Alcotest.(check bool) "clean end" false rp.Wal.rp_damaged;
  Alcotest.(check int) "epoch unchanged" 0 (Wal.epoch t')

let test_wal_empty_replay () =
  let sim = fresh_disk () in
  let t = Wal.attach (Sim_disk.disk sim) in
  let rp = Wal.replay t in
  Alcotest.(check (list string)) "no entries" [] rp.Wal.rp_entries;
  Alcotest.(check bool) "no checkpoint" true (Option.is_none rp.Wal.rp_checkpoint);
  Alcotest.(check bool) "blank disk is clean, not damaged" false rp.Wal.rp_damaged

let test_wal_checkpoint_truncation () =
  let sim = fresh_disk () in
  let disk = Sim_disk.disk sim in
  let t = Wal.attach disk in
  Wal.append t "pre-1";
  Wal.append t "pre-2";
  Wal.sync t;
  Wal.write_checkpoint t [ "image-bytes" ];
  Alcotest.(check int) "checkpoint starts a new epoch" 1 (Wal.epoch t);
  Wal.append t "post-1";
  Wal.append t "post-2";
  Wal.sync t;
  let rp = Wal.replay (Wal.attach disk) in
  Alcotest.(check (option string))
    "checkpoint image recovered" (Some "image-bytes") rp.Wal.rp_checkpoint;
  Alcotest.(check (list string))
    "only post-checkpoint entries replay" [ "post-1"; "post-2" ] rp.Wal.rp_entries;
  Alcotest.(check bool) "clean" false rp.Wal.rp_damaged

(* Successive checkpoints alternate regions; each re-attach must see only
   the newest epoch, never resurrect frames from a previous occupancy. *)
let test_wal_region_alternation () =
  let sim = fresh_disk () in
  let disk = Sim_disk.disk sim in
  let t0 = Wal.attach disk in
  Wal.append t0 "epoch0-entry";
  Wal.sync t0;
  List.iteri
    (fun i image ->
      let t = Wal.attach disk in
      Wal.write_checkpoint t [ image ];
      Wal.append t (Printf.sprintf "after-%s" image);
      Wal.sync t;
      let t' = Wal.attach disk in
      let rp = Wal.replay t' in
      Alcotest.(check int) "epoch advances" (i + 1) (Wal.epoch t');
      Alcotest.(check (option string)) "newest image" (Some image) rp.Wal.rp_checkpoint;
      Alcotest.(check (list string))
        "no stale frames from the region's previous occupancy"
        [ Printf.sprintf "after-%s" image ]
        rp.Wal.rp_entries;
      Alcotest.(check bool) "clean" false rp.Wal.rp_damaged)
    [ "cp-1"; "cp-2"; "cp-3" ]

let test_wal_crash_loses_unsynced () =
  let sim = fresh_disk () in
  let disk = Sim_disk.disk sim in
  let t = Wal.attach disk in
  Wal.append t "durable";
  Wal.sync t;
  Wal.append t "volatile";
  Sim_disk.crash sim;
  let rp = Wal.replay (Wal.attach disk) in
  Alcotest.(check (list string))
    "synced entry survives, staged one is gone" [ "durable" ] rp.Wal.rp_entries;
  Alcotest.(check bool) "losing staged writes is clean, not damage" false
    rp.Wal.rp_damaged

(* One handle across a crash: [remount] forgets what was only staged,
   reads back exactly what a fresh [attach] of the disk would, keeps its
   counters, and appends after the valid prefix. *)
let test_wal_remount () =
  let sim = fresh_disk () in
  let disk = Sim_disk.disk sim in
  let t = Wal.attach disk in
  Wal.append t "first";
  Wal.sync t;
  Wal.append t "durable";
  Wal.sync t;
  Wal.append t "volatile";
  let stats = Wal.stats t in
  Sim_disk.crash sim;
  Wal.remount t;
  let rp = Wal.replay t in
  Alcotest.(check (list string))
    "the unsynced append is gone" [ "first"; "durable" ] rp.Wal.rp_entries;
  let fresh = Wal.attach disk in
  let rp' = Wal.replay fresh in
  Alcotest.(check (option string))
    "checkpoint as a fresh attach reads it" rp'.Wal.rp_checkpoint rp.Wal.rp_checkpoint;
  Alcotest.(check (list string))
    "entries as a fresh attach reads them" rp'.Wal.rp_entries rp.Wal.rp_entries;
  Alcotest.(check bool) "damage as a fresh attach reads it" rp'.Wal.rp_damaged
    rp.Wal.rp_damaged;
  Alcotest.(check int) "epoch as a fresh attach reads it" (Wal.epoch fresh) (Wal.epoch t);
  Alcotest.(check bool) "counters carry over" true (Wal.stats t = stats);
  Wal.append t "after-remount";
  Wal.sync t;
  Alcotest.(check (list string))
    "the append lands after the valid prefix" [ "first"; "durable"; "after-remount" ]
    (Wal.replay (Wal.attach disk)).Wal.rp_entries

(* A torn tail: scribble a prefix-plus-zeros over the last data sector,
   exactly what a torn sector write leaves.  Replay must flag damage and
   keep the valid prefix; a subsequent append must overwrite the damaged
   suffix so the next attach is clean again. *)
let test_wal_torn_tail_detected () =
  let sim = fresh_disk () in
  let disk = Sim_disk.disk sim in
  let t = Wal.attach disk in
  let payloads = List.init 3 (fun i -> String.make 100 (Char.chr (97 + i))) in
  List.iter (Wal.append t) payloads;
  Wal.sync t;
  let victim = last_data_sector disk in
  let sect = Disk.read disk ~sector:victim in
  Disk.write disk ~sector:victim
    (String.sub sect 0 5 ^ String.make (String.length sect - 5) '\000');
  Disk.sync disk;
  let t' = Wal.attach disk in
  let rp = Wal.replay t' in
  Alcotest.(check bool) "torn tail flagged as damage" true rp.Wal.rp_damaged;
  Alcotest.(check bool) "recovered entries are a strict prefix" true
    (is_prefix rp.Wal.rp_entries payloads
    && List.length rp.Wal.rp_entries < List.length payloads);
  Wal.append t' "repaired";
  Wal.sync t';
  let rp' = Wal.replay (Wal.attach disk) in
  Alcotest.(check bool) "append overwrote the damaged suffix" false
    rp'.Wal.rp_damaged;
  Alcotest.(check (list string))
    "prefix plus repair entry"
    (List.filteri (fun i _ -> i < List.length rp.Wal.rp_entries) payloads
    @ [ "repaired" ])
    rp'.Wal.rp_entries

let test_wal_corrupt_payload_detected () =
  let sim = fresh_disk () in
  let disk = Sim_disk.disk sim in
  let t = Wal.attach disk in
  let payloads = [ String.make 100 'x'; String.make 100 'y' ] in
  List.iter (Wal.append t) payloads;
  Wal.sync t;
  (* Flip one byte deep inside the second frame's payload (stream byte
     67 of the second frame region; sector 4 of the region holds stream
     bytes 128..191, all second-frame payload). *)
  let victim = 2 + 2 in
  let sect = Bytes.of_string (Disk.read disk ~sector:victim) in
  Bytes.set sect 10 (Char.chr (Char.code (Bytes.get sect 10) lxor 0x55));
  Disk.write disk ~sector:victim (Bytes.to_string sect);
  Disk.sync disk;
  let rp = Wal.replay (Wal.attach disk) in
  Alcotest.(check bool) "checksum catches the flipped byte" true rp.Wal.rp_damaged;
  Alcotest.(check (list string))
    "first entry survives" [ String.make 100 'x' ] rp.Wal.rp_entries

(* Staging and verifying a synced append touch only its dirty sectors: on
   top of a 64 KB checkpoint, an append and its sync must not copy the
   log.  [Gc.allocated_bytes] counts direct major-heap allocations too,
   which is where a whole-log copy of this size would land.  On OCaml 5.1
   its minor-heap count lags until the next minor collection, which then
   adds words allocated before the window (up to a minor heap's worth, as
   whatever earlier tests left there): a minor collection at each end of
   the window makes the count exact. *)
let test_wal_append_costs_a_sector () =
  let sim = Sim_disk.create ~sector_size:256 ~sector_count:8192 () in
  let t = Wal.attach (Sim_disk.disk sim) in
  Wal.write_checkpoint t [ String.make 65_536 'c' ];
  let payload = String.make 200 'e' in
  let n = 100 in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  for _ = 1 to n do
    Wal.append t payload;
    Wal.sync t
  done;
  Gc.minor ();
  let per_append = (Gc.allocated_bytes () -. before) /. float_of_int n in
  if per_append >= 4096.0 then
    Alcotest.failf "a synced 200 B append allocated %.0f bytes on average" per_append;
  Alcotest.(check int) "every entry replays" n
    (List.length (Wal.replay (Wal.attach (Sim_disk.disk sim))).Wal.rp_entries)

(* A checkpoint is cut into sectors straight from its pieces: no joined
   frame, no in-memory copy of the log, no second staging for the sync's
   read-back.  So writing a 64 KB image allocates the sectors the disk
   keeps (1.03x the image), the simulated disk's own table cells, and
   little else; a whole-frame copy would add another 1x.  One checkpoint
   into each region first grows the disk's tables and the handle's staged
   array to size.  Minor collections bracket the window, as in the append
   test above. *)
let test_wal_checkpoint_costs_its_image () =
  let sim = Sim_disk.create ~sector_size:256 ~sector_count:8192 () in
  let t = Wal.attach (Sim_disk.disk sim) in
  let image = String.make 65_536 'c' in
  let head = "certificate-and-length" in
  Wal.write_checkpoint t [ head; image ];
  Wal.write_checkpoint t [ head; image ];
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  Wal.write_checkpoint t [ head; image ];
  Gc.minor ();
  let ratio = (Gc.allocated_bytes () -. before) /. float_of_int (String.length image) in
  if ratio >= 1.5 then
    Alcotest.failf "a 64 KB write_checkpoint allocated %.2fx its payload" ratio;
  Alcotest.(check (option string))
    "the image replays" (Some (head ^ image))
    (Wal.replay (Wal.attach (Sim_disk.disk sim))).Wal.rp_checkpoint

(* The sector-cut memo, against logs that cut alone.  Two sides of four
   logs each, two on 64 B sectors and two on 256 B: one side shares one
   memo, the other attaches each log with none (so each gets its own).
   Both run the same random script of appends, syncs, checkpoints, resets,
   remounts and disk crashes; a checkpoint hands every log the same image
   under its own certificate.  The images cover 1-, 2- and 3-byte length
   varints, come in equal-length pairs that differ in content, and follow
   a lead piece of varying length, so one image is cut at several phases.
   Appends of 256 B or more are long pieces on 64 B sectors, and each log
   appends its own bytes.  After every step each pair of logs must have
   made the same disk calls, hold the same sectors and replay the same
   frames; the shared memo must make at most two cuts a step: an image
   once per sector size, or the two 64 B logs' own appends. *)
module Cuts = Wal.Cuts

type wal_op = Append of int | Sync | Checkpoint of int * int | Reset | Remount | Crash

let varint n =
  let b = Bytes.create (Sof_util.Codec.varint_size n) in
  ignore (Sof_util.Codec.put_varint b 0 n);
  Bytes.unsafe_to_string b

let cut_images =
  List.concat_map
    (fun len ->
      List.map (fun salt -> String.init len (fun j -> Char.chr (((j * salt) + (j / 7)) land 0xff)))
        [ 7; 13 ])
    [ 100; 3_000; 17_000 ]
  |> Array.of_list

let gen_wal_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun n -> Append n) (0 -- 700));
        (3, return Sync);
        (4, map2 (fun i lead -> Checkpoint (i, lead)) (int_bound 5) (0 -- 5));
        (1, return Reset);
        (1, return Remount);
        (1, return Crash);
      ])

let prop_wal_cut_memo =
  QCheck.Test.make ~name:"wal cut memo: shared cuts write what lone cuts write" ~count:60
    QCheck.(make Gen.(list_size (1 -- 30) gen_wal_op))
    (fun ops ->
      let geometry = [ (64, 1024); (64, 1024); (256, 256); (256, 256) ] in
      let side cuts =
        List.map
          (fun (sector_size, sector_count) ->
            let sim = Sim_disk.create ~sector_size ~sector_count () in
            (sim, Wal.attach ?cuts (Sim_disk.disk sim)))
          geometry
      in
      let memo = Cuts.create () in
      let shared = side (Some memo) and alone = side None in
      let ok = ref true in
      let check b = if not b then ok := false in
      let sectors sim =
        let d = Sim_disk.disk sim in
        List.init d.Disk.sector_count (fun sector -> Disk.read d ~sector)
      in
      let step op =
        let cut = Cuts.cut memo in
        List.iter
          (fun logs ->
            List.iteri
              (fun i (sim, t) ->
                match op with
                | Append n -> Wal.append t (String.init n (fun j -> Char.chr (((i * 31) + j) land 0xff)))
                | Sync -> Wal.sync t
                | Checkpoint (k, lead) ->
                  let image = cut_images.(k) in
                  Wal.write_checkpoint t
                    [ varint (String.length image) ^ String.make lead 'l'; image;
                      Printf.sprintf "certificate of %d" i ]
                | Reset -> Wal.reset t
                | Remount -> Wal.remount t
                | Crash ->
                  Sim_disk.crash sim;
                  Wal.remount t)
              logs)
          [ shared; alone ];
        check (Cuts.cut memo - cut <= 2);
        List.iter2
          (fun (sim, t) (sim', t') ->
            check (Sim_disk.stats sim = Sim_disk.stats sim');
            check (Wal.epoch t = Wal.epoch t' && Wal.replay t = Wal.replay t');
            check (List.equal String.equal (sectors sim) (sectors sim')))
          shared alone
      in
      List.iter step ops;
      check (Cuts.cut memo <= Cuts.asked memo);
      if List.exists (function Checkpoint (k, _) -> k >= 2 | _ -> false) ops then
        check (Cuts.cut memo < Cuts.asked memo);
      !ok)

(* A deployment's second log writes the image the first one cut without
   cutting it again: its checkpoint allocates the frame header, the
   image's first and last partial sectors and the certificate's, not the
   image's sectors.  Both logs have written one checkpoint into each
   region first, which grows the disks' tables and the handles' staged
   arrays to size.  Minor collections bracket the window, as above. *)
let test_wal_shared_cut_allocates_little () =
  let memo = Cuts.create () in
  let log () =
    Wal.attach ~cuts:memo (Sim_disk.disk (Sim_disk.create ~sector_size:256 ~sector_count:8192 ()))
  in
  let first = log () and second = log () in
  let pieces image i = [ varint (String.length image); image; Printf.sprintf "certificate %d" i ] in
  let warm = String.make 65_536 'w' in
  List.iter (fun t -> for i = 1 to 2 do Wal.write_checkpoint t (pieces warm i) done) [ first; second ];
  let image = String.init 65_536 (fun j -> Char.chr (j * 7 land 0xff)) in
  Wal.write_checkpoint first (pieces image 1);
  let asked = Cuts.asked memo and cut = Cuts.cut memo in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  Wal.write_checkpoint second (pieces image 2);
  Gc.minor ();
  let ratio = (Gc.allocated_bytes () -. before) /. float_of_int (String.length image) in
  if ratio >= 0.1 then
    Alcotest.failf "a second log's 64 KB write_checkpoint allocated %.3fx its payload" ratio;
  Alcotest.(check (pair int int)) "asked once more, cut no more" (asked + 1, cut)
    (Cuts.asked memo, Cuts.cut memo);
  Wal.remount second;
  Alcotest.(check (option string))
    "the image replays"
    (Some (String.concat "" (pieces image 2)))
    (Wal.replay second).Wal.rp_checkpoint

(* Region B (odd epochs) starts at this sector of [fresh_disk]. *)
let region_b = 2 + ((64 - 2) / 2)

(* A checkpoint frame that ends exactly on a sector boundary is followed by
   a zero terminator sector, so a stale frame that still sits in the next
   sector of the region cannot line up with it: here one that would even
   pass as a live frame of the new epoch. *)
let test_wal_frame_ends_on_a_sector () =
  let sim = fresh_disk () in
  let disk = Sim_disk.disk sim in
  let stale = Bytes.make 64 '\000' in
  Bytes.set stale 0 'E';
  Bytes.set_int32_le stale 1 1l;
  Bytes.set_int32_le stale 5 5l;
  Bytes.set_int32_le stale 9 (Int32.of_int (Sof_util.Fnv.string "stale"));
  Bytes.blit_string "stale" 0 stale 13 5;
  Disk.write disk ~sector:(region_b + 2) (Bytes.to_string stale);
  Disk.sync disk;
  let t = Wal.attach disk in
  (* 13 header bytes + 115 payload bytes: exactly two 64 B sectors. *)
  let image = String.make 115 'i' in
  Wal.write_checkpoint t [ String.sub image 0 50; String.sub image 50 65 ];
  Alcotest.(check string) "the terminator sector is zeros" (Disk.zeros disk)
    (Disk.read disk ~sector:(region_b + 2));
  let rp = Wal.replay (Wal.attach disk) in
  Alcotest.(check (option string)) "checkpoint" (Some image) rp.Wal.rp_checkpoint;
  Alcotest.(check (list string)) "no stale entry" [] rp.Wal.rp_entries;
  Alcotest.(check bool) "clean" false rp.Wal.rp_damaged

(* The handle keeps only the partial last sector.  After a remount whose
   valid prefix ends mid-sector, that sector comes from the disk, and an
   append must carry its first bytes over unchanged. *)
let test_wal_append_after_mid_sector_remount () =
  let sim = fresh_disk () in
  let disk = Sim_disk.disk sim in
  let t = Wal.attach disk in
  (* A 103 B checkpoint frame and a 15 B entry: the log ends at byte 118,
     54 bytes into its second sector. *)
  let image = String.make 90 'i' in
  Wal.write_checkpoint t [ image ];
  Wal.append t "e1";
  Wal.sync t;
  Wal.append t "lost";
  Sim_disk.crash sim;
  Wal.remount t;
  Alcotest.(check (list string)) "the valid prefix" [ "e1" ] (Wal.replay t).Wal.rp_entries;
  Wal.append t "e2";
  Wal.sync t;
  Wal.append t (String.make 90 'x');
  Wal.sync t;
  Sim_disk.crash sim;
  let rp = Wal.replay (Wal.attach disk) in
  Alcotest.(check (option string)) "checkpoint" (Some image) rp.Wal.rp_checkpoint;
  Alcotest.(check (list string))
    "every synced entry" [ "e1"; "e2"; String.make 90 'x' ] rp.Wal.rp_entries;
  Alcotest.(check bool) "clean" false rp.Wal.rp_damaged

(* A lost write of a checkpoint's data sector is caught by the sync's
   read-back and rewritten from the sector string staged for it. *)
let test_wal_lost_checkpoint_write_healed () =
  let profile = { Fault_atlas.clean with Fault_atlas.p_lost_write = 0.2 } in
  let atlas = Fault_atlas.make ~seed:5 ~replica:1 profile in
  let sim = fresh_disk ~atlas () in
  let inner = Sim_disk.disk sim in
  let lost_data = ref [] in
  let disk =
    {
      inner with
      Disk.write =
        (fun sector data ->
          let before = (Sim_disk.stats sim).Sim_disk.sd_lost in
          inner.Disk.write sector data;
          if sector >= 2 && (Sim_disk.stats sim).Sim_disk.sd_lost > before then
            lost_data := sector :: !lost_data);
    }
  in
  let t = Wal.attach disk in
  let image = String.init 1_000 (fun i -> Char.chr (i land 0xff)) in
  Wal.write_checkpoint t [ String.sub image 0 300; String.sub image 300 700 ];
  Alcotest.(check bool) "a checkpoint data sector write was lost" true
    (List.exists (fun s -> s >= region_b) !lost_data);
  let rp = Wal.replay (Wal.attach inner) in
  Alcotest.(check (option string)) "the image is on the platter" (Some image)
    rp.Wal.rp_checkpoint;
  Alcotest.(check bool) "clean" false rp.Wal.rp_damaged

(* The region-full check is against the absolute log length, which the
   handle no longer holds as bytes: a log that fills the region exactly is
   kept whole, and the next frame is dropped, across a remount too. *)
let test_wal_full_region_drops () =
  let sim = fresh_disk () in
  let disk = Sim_disk.disk sim in
  let t = Wal.attach disk in
  (* Region of 31 64 B sectors: 1,984 B = a 515 B checkpoint frame plus
     thirteen 113 B entry frames. *)
  Wal.write_checkpoint t [ String.make 502 'c' ];
  let entries = List.init 13 (fun i -> String.make 100 (Char.chr (97 + i))) in
  List.iter (Wal.append t) entries;
  Wal.append t "";
  Wal.sync t;
  Alcotest.(check int) "the frame past the end is dropped" 1 (Wal.stats t).Wal.w_dropped;
  Alcotest.(check int) "every frame that fits is appended" 13 (Wal.stats t).Wal.w_appends;
  Wal.remount t;
  Wal.append t "";
  Alcotest.(check int) "still full after a remount" 2 (Wal.stats t).Wal.w_dropped;
  let rp = Wal.replay (Wal.attach disk) in
  Alcotest.(check (list string)) "the full log replays" entries rp.Wal.rp_entries;
  Alcotest.(check bool) "clean" false rp.Wal.rp_damaged

(* --------------------------------------------------------------- atlas *)

let test_atlas_torn_crash () =
  let atlas = Fault_atlas.make ~seed:42 ~replica:1 Fault_atlas.torn_only in
  let sim = fresh_disk ~atlas () in
  let disk = Sim_disk.disk sim in
  let t = Wal.attach disk in
  let payloads = List.init 3 (fun i -> String.make 100 (Char.chr (107 + i))) in
  List.iter (Wal.append t) payloads;
  Wal.sync t;
  Sim_disk.crash sim;
  let rp = Wal.replay (Wal.attach disk) in
  Alcotest.(check bool) "recovered entries are a prefix of the synced log" true
    (is_prefix rp.Wal.rp_entries payloads);
  Alcotest.(check bool) "the tear was recorded" true
    ((Sim_disk.stats sim).Sim_disk.sd_torn >= 1)

let test_atlas_corrupt_read () =
  let profile = { Fault_atlas.clean with Fault_atlas.p_corrupt_read = 1.0 } in
  let atlas = Fault_atlas.make ~seed:7 ~replica:3 profile in
  let sim = fresh_disk ~atlas () in
  let disk = Sim_disk.disk sim in
  let written = String.make 64 'A' in
  Disk.write disk ~sector:5 written;
  Disk.sync disk;
  let got = Disk.read disk ~sector:5 in
  (* Corruption is one flipped byte at (sector mod sector_size). *)
  Alcotest.(check char)
    "byte 5 flipped" (Char.chr (Char.code 'A' lxor 0x55)) got.[5];
  String.iteri
    (fun i c -> if i <> 5 then Alcotest.(check char) "other bytes intact" 'A' c)
    got;
  let again = Disk.read disk ~sector:5 in
  Alcotest.(check string) "grown defect is stable across re-reads" got again;
  Alcotest.(check bool) "corrupt reads counted" true
    ((Sim_disk.stats sim).Sim_disk.sd_corrupt_reads >= 2);
  (* Stable verdict: a second atlas with the same identity agrees. *)
  let atlas' = Fault_atlas.make ~seed:7 ~replica:3 profile in
  Alcotest.(check bool) "verdict is a function of (seed, replica, sector)"
    (Fault_atlas.corrupt_sector atlas ~sector:9)
    (Fault_atlas.corrupt_sector atlas' ~sector:9)

let test_atlas_lost_write () =
  let profile = { Fault_atlas.clean with Fault_atlas.p_lost_write = 1.0 } in
  let atlas = Fault_atlas.make ~seed:11 ~replica:2 profile in
  let sim = fresh_disk ~atlas () in
  let disk = Sim_disk.disk sim in
  Disk.write disk ~sector:3 (String.make 64 'B');
  Disk.sync disk;
  Alcotest.(check string)
    "the write never reached the platter" (Disk.zeros disk)
    (Disk.read disk ~sector:3);
  Alcotest.(check bool) "lost writes counted" true
    ((Sim_disk.stats sim).Sim_disk.sd_lost >= 1)

(* --------------------------------------------------- tally and images *)

let test_tally_dedup_and_prune () =
  let tally = Recovery.Tally.create () in
  Recovery.Tally.add tally ~seq:5 ~digest:"d5" ~signer:1 ~signature:"s1";
  Recovery.Tally.add tally ~seq:5 ~digest:"d5" ~signer:1 ~signature:"s1-again";
  Alcotest.(check int) "duplicate signer counted once" 1
    (Recovery.Tally.count tally ~seq:5 ~digest:"d5");
  Recovery.Tally.add tally ~seq:5 ~digest:"d5" ~signer:2 ~signature:"s2";
  Recovery.Tally.add tally ~seq:6 ~digest:"d6" ~signer:1 ~signature:"s1@6";
  Alcotest.(check int) "second signer counted" 2
    (Recovery.Tally.count tally ~seq:5 ~digest:"d5");
  Alcotest.(check (list (pair int string)))
    "proof carries the first-seen signatures"
    [ (1, "s1"); (2, "s2") ]
    (List.sort compare (Recovery.Tally.proof tally ~seq:5 ~digest:"d5"));
  Recovery.Tally.prune tally ~upto:5;
  Alcotest.(check int) "pruned votes are gone" 0
    (Recovery.Tally.count tally ~seq:5 ~digest:"d5");
  Alcotest.(check int) "votes above the floor survive" 1
    (Recovery.Tally.count tally ~seq:6 ~digest:"d6");
  Recovery.Tally.add tally ~seq:5 ~digest:"d5" ~signer:3 ~signature:"s3";
  Alcotest.(check int) "a fresh vote after prune starts a new tally" 1
    (Recovery.Tally.count tally ~seq:5 ~digest:"d5")

let test_image_rejection () =
  let image =
    Checkpoint.wrap_image ~state:"service-state" ~marks:[ (1, 4); (2, 9) ]
  in
  Alcotest.(check bool) "well-formed image accepted" true
    (Option.is_some (Checkpoint.unwrap_image image));
  for cut = 0 to String.length image - 1 do
    match Checkpoint.unwrap_image (String.sub image 0 cut) with
    | Some _ -> Alcotest.failf "truncated image (%d bytes) accepted" cut
    | None -> ()
  done;
  Alcotest.(check bool) "garbage rejected" true
    (Option.is_none (Checkpoint.unwrap_image "not a checkpoint image"))

(* ------------------------------------------------------ shared log path *)

let put_request seq =
  Sof_smr.Request.make ~client:1 ~client_seq:seq
    ~op:(Kv.encode_op (Kv.Put (Printf.sprintf "k%d" seq, "v")))

(* Process 1 of an f = 1 deployment, wired to nothing but [store]: sends
   and timers go nowhere, events are recorded newest first. *)
let bare_replica ?store ~kind ~config () =
  let keyring =
    Keyring.create
      ~scheme:(Replica.scheme kind Sof_crypto.Scheme.mock)
      ~rng:(Sof_util.Rng.create 7L)
      ~node_count:(P.Config.process_count config) ()
  in
  let events = ref [] in
  let context id =
    if id = 1 then Bare.context ~keyring ~emit:(fun ev -> events := ev :: !events) ?store ~id ()
    else Bare.context ~keyring ~id ()
  in
  ((Replica.spawn ~config ~keyring ~machine:Kv.machine context).(1), events)

(* A replica under [written] delivers [n] batches, which its kernel logs;
   the disk crashes, and a fresh replica under [config] over the same log
   handle crashes and restarts the way every driver's does.
   Returns the restarted replica's delivery point, its state-transfer
   requests and its [Wal_replayed] events. *)
let replay_into ~kind ~config ~written n =
  let sd = Sim_disk.create ~sector_size:256 ~sector_count:256 () in
  let store = { P.Context.wal = Wal.attach (Sim_disk.disk sd); charge_io = ignore } in
  let writer, _ = bare_replica ~store ~kind ~config:written () in
  Replica.start writer;
  let entries =
    List.init n (fun i ->
        let requests = [ put_request (i + 1) ] in
        {
          Checkpoint.e_o = i + 1;
          e_digest = P.Batch.digest written.P.Config.digest (P.Batch.make requests);
          e_requests = requests;
        })
  in
  (match Replica.kernel writer with
  | Recovery.Kernel h -> ignore (Recovery.recover_local h ~cert:None ~image:"" ~entries));
  Alcotest.(check int) "the writer delivered every batch" n (Replica.delivered_seq writer);
  Alcotest.(check int) "one synced append per delivery" n
    (Wal.stats store.P.Context.wal).Wal.w_syncs;
  Sim_disk.crash sd;
  let p, events = bare_replica ~store ~kind ~config () in
  Replica.crash p;
  Replica.restart p;
  let count pred = List.length (List.filter pred !events) in
  ( Replica.delivered_seq p,
    count (function P.Context.State_transfer_started _ -> true | _ -> false),
    List.filter_map
      (function P.Context.Wal_replayed { entries; damaged; _ } -> Some (entries, damaged) | _ -> None)
      !events )

let test_log_replay_every_kind () =
  List.iter
    (fun kind ->
      let config = P.Config.make ~kind ~f:1 () in
      let delivered, transfers, replayed = replay_into ~kind ~config ~written:config 6 in
      let name = Replica.name kind in
      Alcotest.(check (list (pair int bool)))
        (name ^ ": the whole log replays, undamaged") [ (6, false) ] replayed;
      Alcotest.(check int) (name ^ ": every logged entry delivered") 6 delivered;
      Alcotest.(check int) (name ^ ": no state transfer") 0 transfers)
    [ Cluster.Sc_protocol; Cluster.Scr_protocol; Cluster.Bft_protocol; Cluster.Ct_protocol ]

(* The kernel accessors read through one unboxed handle, so a driver
   polling them per event allocates nothing.  As in the append test above,
   a minor collection at each end of the window keeps [Gc.minor_words]
   from counting words allocated before it. *)
let test_kernel_accessors_allocate_nothing () =
  List.iter
    (fun kind ->
      let config = P.Config.make ~kind ~f:1 () in
      let p, _ = bare_replica ~kind ~config () in
      let poll () =
        Replica.log_length p + Replica.stable_checkpoint_seq p + Replica.delivered_seq p
        + Replica.max_committed p
      in
      ignore (poll ());
      Gc.minor ();
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (poll ()))
      done;
      Gc.minor ();
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "%s: 1000 polls allocate nothing (%.0f words)" (Replica.name kind) words)
        true (words < 100.0))
    Replica.kinds

(* Entries digested under another algorithm than the protocol checks fail
   verification: a SHA-256 replica writes the log, an MD5 replica replays
   it, installs nothing and falls back to its peers. *)
let test_log_replay_digest_mismatch () =
  let kind = Cluster.Sc_protocol in
  let written =
    P.Config.make ~kind ~digest:Sof_crypto.Digest_alg.SHA256 ~f:1 ()
  in
  let config = P.Config.make ~kind ~digest:Sof_crypto.Digest_alg.MD5 ~f:1 () in
  let delivered, transfers, replayed = replay_into ~kind ~config ~written 6 in
  Alcotest.(check (list (pair int bool)))
    "the log decodes, undamaged" [ (6, false) ] replayed;
  Alcotest.(check int) "nothing delivered" 0 delivered;
  Alcotest.(check int) "state transfer requested" 1 transfers

let test_payload_decoders () =
  let cert =
    {
      Checkpoint.cp_seq = 4;
      cp_digest = "state-digest";
      cp_proof = [ (0, "sig-0"); (1, "sig-1") ];
      cp_endorsement = Some (3, "endorsement");
    }
  in
  let entry =
    { Checkpoint.e_o = 5; e_digest = "entry-digest"; e_requests = [ put_request 5 ] }
  in
  let hostile name decode payload =
    for cut = 0 to String.length payload - 1 do
      if Option.is_some (decode (String.sub payload 0 cut)) then
        Alcotest.failf "%s payload cut to %d bytes decoded" name cut
    done;
    if Option.is_some (decode (payload ^ "\000")) then
      Alcotest.failf "%s payload with a trailing byte decoded" name
  in
  let pieces, crc = Checkpoint.log_payload (Checkpoint.Images.create ()) Sof_crypto.Digest_alg.SHA256 cert "image"
  in
  (match pieces with
  | [ head; image; _ ] ->
    Alcotest.(check string) "the image's length leads" "\005" head;
    Alcotest.(check string) "then the image" "image" image
  | _ -> Alcotest.fail "a checkpoint payload is three pieces");
  let ckpt = String.concat "" pieces in
  Alcotest.(check int) "the frame checksum is the payload's" (Sof_util.Fnv.string ckpt) crc;
  (match Checkpoint.decode_log_payload ckpt with
  | Some (c, image) ->
    Alcotest.(check bool) "checkpoint roundtrips" true
      (Checkpoint.equal_cert c cert && String.equal image "image")
  | None -> Alcotest.fail "checkpoint payload did not decode");
  hostile "checkpoint" Checkpoint.decode_log_payload ckpt;
  let e = Recovery.encode_entry_payload entry in
  (match Recovery.decode_entry_payload e with
  | Some e' ->
    Alcotest.(check int) "entry roundtrips" 5 e'.Checkpoint.e_o;
    Alcotest.(check string) "entry digest roundtrips" "entry-digest" e'.Checkpoint.e_digest
  | None -> Alcotest.fail "entry payload did not decode");
  hostile "entry" Recovery.decode_entry_payload e

(* A checkpoint frame checksums its image through the memo and its
   certificate per replica; a byte flipped in either part is damage.  On
   the 64-byte-sector test disk the checkpoint opens epoch 1 in region B,
   and the frame's header is 13 bytes, so the payload starts at stream
   byte 13. *)
let test_checkpoint_frame_damage () =
  let cert =
    {
      Checkpoint.cp_seq = 8;
      cp_digest = "image-digest";
      cp_proof = [ (0, "sig-0") ];
      cp_endorsement = Some (1, "endorsement");
    }
  in
  let image = String.init 300 (fun i -> Char.chr (i * 7 land 0xff)) in
  let images = Checkpoint.Images.create () in
  let alg = Sof_crypto.Digest_alg.SHA256 in
  ignore (Checkpoint.Images.digest images alg image);
  let pieces, crc = Checkpoint.log_payload images alg cert image in
  Alcotest.(check int) "the held image's checksum extends to the payload's"
    (Sof_util.Fnv.string (String.concat "" pieces)) crc;
  Alcotest.(check int) "and equals a fresh memo's" crc
    (snd (Checkpoint.log_payload (Checkpoint.Images.create ()) alg cert image));
  let image_at = 13 + Sof_util.Codec.varint_size (String.length image) in
  let cert_at = image_at + String.length image in
  let remount flip =
    let disk = Sim_disk.disk (fresh_disk ()) in
    let t = Wal.attach disk in
    Wal.write_checkpoint t ~crc pieces;
    Option.iter
      (fun pos ->
        let region_b = 2 + ((disk.Disk.sector_count - 2) / 2) in
        let sector = region_b + (pos / disk.Disk.sector_size) in
        let b = Bytes.of_string (Disk.read disk ~sector) in
        let i = pos mod disk.Disk.sector_size in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
        Disk.write disk ~sector (Bytes.to_string b);
        Disk.sync disk)
      flip;
    Wal.remount t;
    Wal.replay t
  in
  let rp = remount None in
  Alcotest.(check bool) "intact frame undamaged" false rp.Wal.rp_damaged;
  (match Option.bind rp.Wal.rp_checkpoint Checkpoint.decode_log_payload with
  | Some (c, im) ->
    Alcotest.(check bool) "intact frame decodes" true
      (Checkpoint.equal_cert c cert && String.equal im image)
  | None -> Alcotest.fail "intact checkpoint frame lost");
  List.iter
    (fun (part, pos) ->
      let rp = remount (Some pos) in
      Alcotest.(check bool) (part ^ " byte flipped: damaged") true rp.Wal.rp_damaged;
      Alcotest.(check bool) (part ^ " byte flipped: no checkpoint") true
        (Option.is_none rp.Wal.rp_checkpoint))
    [ ("image", image_at + 150); ("certificate", cert_at + 3) ]

(* ----------------------------------------------------------- file disk *)

let test_file_disk_persistence () =
  let path = Filename.temp_file "sof-test" ".disk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let fd = File_disk.open_file ~path ~sector_size:64 ~sector_count:32 () in
      let disk = File_disk.disk fd in
      Alcotest.(check string) "holes read as zeros" (Disk.zeros disk)
        (Disk.read disk ~sector:7);
      let t = Wal.attach disk in
      Wal.append t "file-backed-entry";
      Wal.sync t;
      Wal.write_checkpoint t [ "file-backed-image" ];
      Wal.append t "after-checkpoint";
      Wal.sync t;
      File_disk.close fd;
      let fd' = File_disk.open_file ~path ~sector_size:64 ~sector_count:32 () in
      let rp = Wal.replay (Wal.attach (File_disk.disk fd')) in
      File_disk.close fd';
      Alcotest.(check (option string))
        "checkpoint survives close/reopen" (Some "file-backed-image")
        rp.Wal.rp_checkpoint;
      Alcotest.(check (list string))
        "entries survive close/reopen" [ "after-checkpoint" ] rp.Wal.rp_entries;
      Alcotest.(check bool) "clean" false rp.Wal.rp_damaged)

(* ----------------------------------------------------------- acceptance *)

(* The headline durability guarantee: a whole-cluster simultaneous
   crash-restart under the full storage-fault atlas (torn writes, corrupt
   sectors, lost and misdirected writes) recovers by local WAL replay —
   with no live peer to transfer from at blackout — and every invariant,
   durability and repair correctness included, holds.  Three seeds per
   protocol. *)
let test_durability_campaigns () =
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let report =
            H.Nemesis.run
              ~layers:[ Lossy; Restart; Durable; Disk_faults ]
              ~kind ~f:1 ~seed
              ~duration:(sec 10) ()
          in
          if not report.H.Nemesis.passed then
            Alcotest.failf "%s seed %Ld: %a" (Replica.name kind) seed
              H.Nemesis.pp_report report;
          Alcotest.(check bool)
            "storage accounting present" true
            (Option.is_some report.H.Nemesis.storage);
          Alcotest.(check bool)
            "the campaign crash-restarted someone" true
            (report.H.Nemesis.restarted <> []))
        [ 3L; 5L; 7L ])
    [ Cluster.Ct_protocol; Cluster.Sc_protocol; Cluster.Scr_protocol;
      Cluster.Bft_protocol ]

(* Commit implies sync, counted: on a durable cluster every delivery is one
   append and one sync, every replayed entry is announced by [Wal_replayed],
   and every checkpoint write is a stable checkpoint or the epoch a replay
   turns over to its recovered checkpoint — through a follower's
   crash-restart and a whole-cluster blackout, for every protocol. *)
let test_commit_implies_sync () =
  List.iter
    (fun kind ->
      let name = Replica.name kind in
      let spec =
        { (Cluster.default_spec ~kind ~f:1) with Cluster.durable = true; checkpoint_interval = 8 }
      in
      let cluster = Cluster.build spec in
      let n = Cluster.process_count cluster in
      H.Workload.install cluster (H.Workload.make ~rate_per_sec:150.0 ()) ~duration:(sec 7);
      Cluster.run cluster ~until:(sec 2);
      Cluster.crash cluster (n - 1);
      Cluster.run cluster ~until:(sec 3);
      Cluster.restart cluster (n - 1);
      Cluster.run cluster ~until:(sec 5);
      for i = 0 to n - 1 do
        Cluster.crash cluster i
      done;
      Cluster.run cluster ~until:(Simtime.ms 5500);
      for i = 0 to n - 1 do
        Cluster.restart cluster i
      done;
      Cluster.run cluster ~until:(sec 9);
      let events = List.map (fun (_, _, ev) -> ev) (Cluster.events cluster) in
      let count pred = List.length (List.filter pred events) in
      let delivered = count (function P.Context.Delivered _ -> true | _ -> false) in
      let stable = count (function P.Context.Checkpoint_stable _ -> true | _ -> false) in
      let replays = count (function P.Context.Wal_replayed _ -> true | _ -> false) in
      let replays_at_checkpoint =
        count (function P.Context.Wal_replayed { seq; _ } -> seq > 0 | _ -> false)
      in
      let replayed_entries =
        List.fold_left
          (fun acc -> function P.Context.Wal_replayed { entries; _ } -> acc + entries | _ -> acc)
          0 events
      in
      let sg =
        match Cluster.storage_totals cluster with
        | Some sg -> sg
        | None -> Alcotest.failf "%s: a durable cluster reports storage totals" name
      in
      Alcotest.(check bool) (name ^ ": delivered, checkpointed and replayed") true
        (delivered > 0 && stable > 0 && replays_at_checkpoint > 0);
      Alcotest.(check int) (name ^ ": one replay per restart") (n + 1) replays;
      Alcotest.(check int) (name ^ ": one append per delivery") delivered sg.Cluster.sg_appends;
      Alcotest.(check int) (name ^ ": one sync per append") sg.Cluster.sg_appends
        sg.Cluster.sg_syncs;
      Alcotest.(check int) (name ^ ": replayed entries are announced") replayed_entries
        sg.Cluster.sg_replayed_entries;
      Alcotest.(check int)
        (name ^ ": checkpoint writes are stable checkpoints and replay turn-overs")
        (stable + replays_at_checkpoint) sg.Cluster.sg_checkpoint_writes)
    Replica.kinds

(* Durable TCP deployment: kill a replica, let checkpoints truncate the
   history behind it, restart — with a data_dir the comeback re-mounts its
   own file-backed log and recovers locally first.  Each protocol listens
   on its own ports. *)
let tcp_durable_restart ~kind ~base_port () =
  let data_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sof-durable-%d-%d" (Unix.getpid ()) base_port)
  in
  let cleanup () =
    (try
       Array.iter
         (fun f -> Sys.remove (Filename.concat data_dir f))
         (Sys.readdir data_dir)
     with Sys_error _ -> ());
    try Unix.rmdir data_dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      let module Runtime = Sof_runtime.Tcp_runtime in
      let victim = 2 in
      let t =
        Runtime.start ~base_port ~kind ~f:1 ~batching_interval_ms:15
          ~checkpoint_interval:4 ~data_dir ()
      in
      for i = 1 to 6 do
        Runtime.inject t
          (Sof_smr.Request.make ~client:1 ~client_seq:i
             ~op:(Kv.encode_op (Kv.Put (Printf.sprintf "pre%d" i, "v"))));
        Thread.delay 0.002
      done;
      Alcotest.(check bool) "delivering before the kill" true
        (Runtime.await_delivery t ~count:1 ~timeout_s:15.0);
      Runtime.kill t victim;
      for i = 1 to 40 do
        Runtime.inject t
          (Sof_smr.Request.make ~client:1 ~client_seq:(100 + i)
             ~op:(Kv.encode_op (Kv.Put (Printf.sprintf "mid%d" i, "v"))));
        Thread.delay 0.002
      done;
      Alcotest.(check bool) "survivors progress while the victim is down" true
        (Runtime.await_delivery t ~count:4 ~timeout_s:15.0);
      Runtime.restart t victim;
      for i = 1 to 20 do
        Runtime.inject t
          (Sof_smr.Request.make ~client:1 ~client_seq:(200 + i)
             ~op:(Kv.encode_op (Kv.Put (Printf.sprintf "post%d" i, "v"))));
        Thread.delay 0.02
      done;
      Alcotest.(check bool) "restarted process delivers after rejoining" true
        (Runtime.await_delivery t ~count:6 ~timeout_s:20.0);
      Thread.delay 1.0;
      Alcotest.(check (list (pair int string))) "no handler or timer faults" []
        (Runtime.faults t);
      let stats = Runtime.stop t in
      Alcotest.(check bool) "per-replica disk files exist" true
        (Sys.file_exists (Filename.concat data_dir "replica-1.disk"));
      match List.map snd stats.Runtime.state_digests with
      | [] -> Alcotest.fail "no digests"
      | d :: rest ->
        List.iteri
          (fun i d' ->
            if d' <> d then Alcotest.failf "state divergence at process %d" (i + 1))
          rest)

let suite =
  [
    ( "storage.wal",
      [
        Alcotest.test_case "append/sync/attach roundtrip" `Quick test_wal_roundtrip;
        Alcotest.test_case "zero-length log replays clean" `Quick
          test_wal_empty_replay;
        Alcotest.test_case "checkpoint truncates and turns the epoch" `Quick
          test_wal_checkpoint_truncation;
        Alcotest.test_case "regions alternate without resurrecting frames" `Quick
          test_wal_region_alternation;
        Alcotest.test_case "crash loses only unsynced appends" `Quick
          test_wal_crash_loses_unsynced;
        Alcotest.test_case "remount drops staged frames and keeps the counters" `Quick
          test_wal_remount;
        Alcotest.test_case "torn tail detected, prefix kept, append repairs"
          `Quick test_wal_torn_tail_detected;
        Alcotest.test_case "corrupt payload byte detected by checksum" `Quick
          test_wal_corrupt_payload_detected;
        Alcotest.test_case "checkpoint frame: image or certificate flip is damage" `Quick
          test_checkpoint_frame_damage;
        Alcotest.test_case "a synced append costs a sector, not the log" `Quick
          test_wal_append_costs_a_sector;
        Alcotest.test_case "a checkpoint allocates its image once" `Quick
          test_wal_checkpoint_costs_its_image;
        QCheck_alcotest.to_alcotest prop_wal_cut_memo;
        Alcotest.test_case "a second log's checkpoint reuses the first one's cut" `Quick
          test_wal_shared_cut_allocates_little;
        Alcotest.test_case "a frame ending on a sector writes the terminator" `Quick
          test_wal_frame_ends_on_a_sector;
        Alcotest.test_case "append after a mid-sector remount keeps the prefix" `Quick
          test_wal_append_after_mid_sector_remount;
        Alcotest.test_case "a lost checkpoint sector write is healed" `Quick
          test_wal_lost_checkpoint_write_healed;
        Alcotest.test_case "a full region drops by absolute length" `Quick
          test_wal_full_region_drops;
      ] );
    ( "storage.atlas",
      [
        Alcotest.test_case "torn crash leaves a replayable prefix" `Quick
          test_atlas_torn_crash;
        Alcotest.test_case "corrupt reads are stable single-byte flips" `Quick
          test_atlas_corrupt_read;
        Alcotest.test_case "lost writes never reach the platter" `Quick
          test_atlas_lost_write;
      ] );
    ( "storage.recovery",
      [
        Alcotest.test_case "tally dedupes signers and prunes below the floor"
          `Quick test_tally_dedup_and_prune;
        Alcotest.test_case "truncated and garbage images are rejected" `Quick
          test_image_rejection;
        Alcotest.test_case "logged deliveries replay locally for every kind" `Quick
          test_log_replay_every_kind;
        Alcotest.test_case "entries under a foreign digest fall back to transfer"
          `Quick test_log_replay_digest_mismatch;
        Alcotest.test_case "kernel accessors allocate nothing" `Quick
          test_kernel_accessors_allocate_nothing;
        Alcotest.test_case "log payload decoders reject truncation and trailing bytes"
          `Quick test_payload_decoders;
      ] );
    ( "storage.file_disk",
      [
        Alcotest.test_case "wal state survives close/reopen" `Quick
          test_file_disk_persistence;
      ] );
    ( "storage.durability",
      [
        Alcotest.test_case "commit implies sync, counted (4 protocols)" `Quick
          test_commit_implies_sync;
        Alcotest.test_case
          "blackout + disk faults recover locally (3 seeds x 4 protocols)"
          `Slow test_durability_campaigns;
        Alcotest.test_case "tcp restart recovers from its data_dir" `Slow
          (tcp_durable_restart ~kind:`Scr ~base_port:8211);
        Alcotest.test_case "tcp restart recovers from its data_dir (sc)" `Slow
          (tcp_durable_restart ~kind:`Sc ~base_port:8111);
        Alcotest.test_case "tcp restart recovers from its data_dir (bft)" `Slow
          (tcp_durable_restart ~kind:`Bft ~base_port:8811);
        Alcotest.test_case "tcp restart recovers from its data_dir (ct)" `Slow
          (tcp_durable_restart ~kind:`Ct ~base_port:8911);
      ] );
  ]
