(* Write-ahead log over a Disk, built for crash recovery rather than
   speed.  Layout:

     sector 0,1          superblock slots ("SOFW" + epoch + crc); the
                         slot for epoch e is sector (e land 1)
     sectors 2..2+cap-1  data region A (even epochs)
     sectors 2+cap..     data region B (odd epochs)

   The active region holds a byte stream of frames:

     kind(1) epoch(4) len(4) crc(4) payload(len)

   kind 'C' is a checkpoint image, 'E' a delivered-batch entry, 0 a clean
   end of log.  Every frame carries the full epoch: regions are reused
   every other checkpoint, so a stale frame from a previous occupancy has
   a smaller epoch and reads as a clean end — without this, old frames
   with valid checksums would replay as live data.

   A checkpoint logically truncates the log by starting epoch+1 in the
   other region: the checkpoint frame and its data are written and synced
   *before* the superblock flips, so a crash mid-checkpoint recovers the
   previous epoch intact.  Replay walks frames until a clean end (kind 0
   or epoch mismatch) or damage (bad crc / kind / length) — the damaged
   flag is what sends recovery up the ladder to peer repair.

   A checkpoint payload (Checkpoint.log_payload) is the image's varint
   length, the image, then the certificate.  The image leads because every
   replica of a deployment persists the same image under its own
   certificate: the checksum of the shared head is computed once per
   deployment and passed in, and each replica feeds on only its short
   certificate.  Replay still checks FNV-1a over the whole payload.

   The handle holds no copy of the log.  A frame, given as pieces (a
   header and the payload, or a checkpoint's image length, image and
   certificate), is
   cut straight into the sectors it touches; the only log bytes kept are
   the partial last sector ([tail]), which the next frame's first sector
   starts from, and the sector strings written since the last verified
   sync, which that sync reads back against.  A mount walks frames over
   the sector strings it reads.

   The whole sectors inside a long piece are cut through a memo ([Cuts])
   that a driver shares among its deployment's logs: each replica turns
   over with the same image at the same in-sector phase, so the first one
   cuts the image's interior sectors and the others write those very
   strings.  Only the frame header, the image's first and last partial
   sectors and the certificate are cut per replica, and the disks hold
   one copy of each shared sector.  A full batch's entry is long too, and
   replicas that log it at the same phase share its cut the same way. *)

module Fnv = Sof_util.Fnv

type replay = {
  rp_checkpoint : string option;
  rp_entries : string list;
  rp_damaged : bool;
}

type stats = {
  w_appends : int;
  w_syncs : int;
  w_checkpoints : int;
  w_dropped : int;
}

(* The sector-cut memo.  A sector that lies wholly inside a piece holds
   bytes of that piece alone, so where the piece starts within a sector
   (its phase) and the sector size fix every such sector: the piece's
   first [(size - phase) mod size] bytes finish the sector already open,
   and each whole sector after them is a substring of the piece.  An entry
   keys those interior sectors on the piece, its phase and the sector
   size, and a hit hands out the held strings, which are never written
   after the cut.  The answer is exact: a hit needs the piece's bytes equal
   ([String.equal], which answers at once for the image string the
   replicas share) and the same phase and size.  Agreeing replicas write
   one boundary's image at a time; four entries keep it while a lagging
   replica, a restart's own payload or a long batch entry takes a slot. *)
module Cuts = struct
  type entry = { piece : string; place : int; sectors : string array }
  type t = { recent : entry Sof_util.Ring.t; mutable asked : int; mutable cut : int }

  let create () = { recent = Sof_util.Ring.create 4; asked = 0; cut = 0 }

  (* The phase and the sector size in one int (a phase is below its sector
     size, and sizes are far below 2^30), so a lookup is the ring's
     two-key scan with a top-level predicate and allocates nothing. *)
  let place ~phase ~size = (size lsl 30) lor phase
  let same piece place e = Int.equal e.place place && String.equal e.piece piece

  let interior t piece ~phase ~size =
    t.asked <- t.asked + 1;
    let place = place ~phase ~size in
    match Sof_util.Ring.find t.recent same piece place with
    | Some e -> e.sectors
    | None ->
      t.cut <- t.cut + 1;
      let head = (size - phase) mod size in
      let sectors =
        Array.init
          ((String.length piece - head) / size)
          (fun k -> String.sub piece (head + (k * size)) size)
      in
      Sof_util.Ring.push t.recent { piece; place; sectors };
      sectors

  let asked t = t.asked
  let cut t = t.cut
end

type t = {
  disk : Disk.t;
  cuts : Cuts.t;  (* the deployment's, shared by its logs *)
  region_sectors : int;
  zeros : string;  (* one all-zero sector *)
  mutable epoch : int;
  mutable len : int;  (* bytes of the current epoch's log *)
  tail : Bytes.t;  (* the sector holding byte [len]: its first
                      [len mod sector_size] bytes, zeros after *)
  staged : string array;  (* by region sector: the string it was last
                             written with, kept from [dirty_lo] to
                             [dirty_hi] *)
  mutable dirty_lo : int;  (* region-relative sector range staged since *)
  mutable dirty_hi : int;  (* the last verified sync; lo > hi when none *)
  mutable last_replay : replay;
  mutable appends : int;
  mutable syncs : int;
  mutable checkpoints : int;
  mutable dropped : int;
}

let header_len = 13
let magic = "SOFW"

let put_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF

let clear_dirty t =
  if t.dirty_hi >= t.dirty_lo then
    Array.fill t.staged t.dirty_lo (t.dirty_hi - t.dirty_lo + 1) "";
  t.dirty_lo <- max_int;
  t.dirty_hi <- -1

let region_bytes t = t.region_sectors * t.disk.Disk.sector_size
let region_base t = 2 + (t.epoch land 1 * t.region_sectors)

let header ~kind ~epoch ~len ~crc =
  let b = Bytes.create header_len in
  Bytes.set b 0 kind;
  put_u32 b 1 epoch;
  put_u32 b 5 len;
  put_u32 b 9 crc;
  Bytes.unsafe_to_string b

let total_length pieces = List.fold_left (fun n p -> n + String.length p) 0 pieces
let feed_piece h p = Fnv.feed h p ~pos:0 ~len:(String.length p)

(* Write region sector [s] and keep the string for the read-back. *)
let put t s data =
  Disk.write t.disk ~sector:(region_base t + s) data;
  t.staged.(s) <- data;
  if s < t.dirty_lo then t.dirty_lo <- s;
  if s > t.dirty_hi then t.dirty_hi <- s

(* A piece at least this many sectors long is cut through the memo:
   every checkpoint image but a tiny one, and a full batch's entry on
   256 B sectors; headers and certificates are cut per log. *)
let long_piece = 4

(* Append [pieces] to the log and write every sector they touch, from the
   one holding the old end of log (its prefix comes from [tail]) through
   the new end, zero-padded.  The whole sectors inside each long piece
   come from the memo.  If the log now ends exactly on a sector
   boundary, write one extra zero sector as a terminator so stale frames
   from a previous occupancy of this region can never line up flush with
   our last frame.  An empty log writes its zero sector 0. *)
let stage t pieces =
  let ss = t.disk.Disk.sector_size in
  let s = ref (t.len / ss) in
  let fill = ref (t.len mod ss) in
  let sect = ref (Bytes.copy t.tail) in
  let emit data =
    put t !s data;
    incr s
  in
  (* [n] bytes of [piece] from [off] into the open sector, emitting each
     sector they fill. *)
  let copy piece off n =
    let off = ref off and stop = off + n in
    while !off < stop do
      let k = min (ss - !fill) (stop - !off) in
      Bytes.blit_string piece !off !sect !fill k;
      fill := !fill + k;
      off := !off + k;
      if Int.equal !fill ss then begin
        emit (Bytes.unsafe_to_string !sect);
        sect := Bytes.make ss '\000';
        fill := 0
      end
    done
  in
  List.iter
    (fun piece ->
      let len = String.length piece in
      if len >= long_piece * ss then begin
        let head = (ss - !fill) mod ss in
        let interior = Cuts.interior t.cuts piece ~phase:!fill ~size:ss in
        copy piece 0 head;
        Array.iter emit interior;
        let off = head + (Array.length interior * ss) in
        copy piece off (len - off)
      end
      else copy piece 0 len)
    pieces;
  t.len <- t.len + total_length pieces;
  if !fill > 0 || Int.equal t.len 0 then begin
    Bytes.blit !sect 0 t.tail 0 ss;
    emit (Bytes.unsafe_to_string !sect)
  end
  else begin
    Bytes.fill t.tail 0 ss '\000';
    if !s < t.region_sectors then put t !s t.zeros
  end

let write_superblock_at t ~slot epoch =
  let ss = t.disk.Disk.sector_size in
  let b = Bytes.make ss '\000' in
  Bytes.blit_string magic 0 b 0 4;
  put_u32 b 4 epoch;
  put_u32 b 8 (Fnv.string (Bytes.sub_string b 0 8));
  Disk.write t.disk ~sector:slot (Bytes.unsafe_to_string b)

let write_superblock t epoch = write_superblock_at t ~slot:(epoch land 1) epoch

let read_superblock t slot =
  let s = Disk.read t.disk ~sector:slot in
  if String.length s >= 12
     && String.equal (String.sub s 0 4) magic
     && Int.equal (get_u32 s 8) (Fnv.feed Fnv.basis s ~pos:0 ~len:8)
  then Some (get_u32 s 4)
  else None

(* Read the active region's sectors, all of them and in order, and walk
   its frames across them.  Sets the replay record, the length of the
   valid prefix and the tail sector, so later appends overwrite any
   damaged suffix in place. *)
let parse_region t =
  let base = region_base t in
  let cap = region_bytes t in
  let ss = t.disk.Disk.sector_size in
  let sectors = Array.init t.region_sectors (fun s -> Disk.read t.disk ~sector:(base + s)) in
  let byte pos = Char.code sectors.(pos / ss).[pos mod ss] in
  let u32 pos =
    byte pos lor (byte (pos + 1) lsl 8) lor (byte (pos + 2) lsl 16) lor (byte (pos + 3) lsl 24)
  in
  let sub pos len =
    let b = Bytes.create len in
    let rec copy off =
      if off < len then begin
        let at = pos + off in
        let n = min (ss - (at mod ss)) (len - off) in
        Bytes.blit_string sectors.(at / ss) (at mod ss) b off n;
        copy (off + n)
      end
    in
    copy 0;
    Bytes.unsafe_to_string b
  in
  let checkpoint = ref None in
  let entries = ref [] in
  let damaged = ref false in
  let rec go pos =
    if pos + header_len > cap then pos
    else
      let kind = Char.chr (byte pos) in
      if Char.equal kind '\000' then pos
      else if not (Int.equal (u32 (pos + 1)) t.epoch) then pos
      else if not (Char.equal kind 'C' || Char.equal kind 'E') then begin
        damaged := true;
        pos
      end
      else
        let len = u32 (pos + 5) in
        if pos + header_len + len > cap then begin
          damaged := true;
          pos
        end
        else
          let payload = sub (pos + header_len) len in
          if not (Int.equal (u32 (pos + 9)) (Fnv.string payload)) then begin
            damaged := true;
            pos
          end
          else begin
            (if Char.equal kind 'C' then begin
               checkpoint := Some payload;
               entries := []
             end
             else entries := payload :: !entries);
            go (pos + header_len + len)
          end
  in
  let valid_len = go 0 in
  t.last_replay <-
    { rp_checkpoint = !checkpoint; rp_entries = List.rev !entries; rp_damaged = !damaged };
  t.len <- valid_len;
  Bytes.fill t.tail 0 ss '\000';
  if valid_len / ss < t.region_sectors then
    Bytes.blit_string sectors.(valid_len / ss) 0 t.tail 0 (valid_len mod ss)

(* Mount the log as the disk holds it: whatever this handle had staged but
   not synced is dropped, and the counters carry over. *)
let remount t =
  clear_dirty t;
  t.epoch <-
    (match (read_superblock t 0, read_superblock t 1) with
    | Some a, Some b -> max a b
    | Some e, None | None, Some e -> e
    | None, None -> 0);
  parse_region t

let attach ?(cuts = Cuts.create ()) disk =
  let region_sectors = (disk.Disk.sector_count - 2) / 2 in
  let t =
    {
      disk;
      cuts;
      region_sectors;
      zeros = Disk.zeros disk;
      epoch = 0;
      len = 0;
      tail = Bytes.make disk.Disk.sector_size '\000';
      staged = Array.make region_sectors "";
      dirty_lo = max_int;
      dirty_hi = -1;
      last_replay = { rp_checkpoint = None; rp_entries = []; rp_damaged = false };
      appends = 0;
      syncs = 0;
      checkpoints = 0;
      dropped = 0;
    }
  in
  remount t;
  t

let replay t = t.last_replay
let epoch t = t.epoch

let append t payload =
  let len = String.length payload in
  if t.len + header_len + len > region_bytes t then t.dropped <- t.dropped + 1
  else begin
    t.appends <- t.appends + 1;
    stage t [ header ~kind:'E' ~epoch:t.epoch ~len ~crc:(Fnv.string payload); payload ]
  end

(* Read-back verification.  The per-frame crc catches bytes that rot on
   the platter, but not writes that never arrive: a lost or misdirected
   write leaves the target sector holding its *previous* content, and
   when that content is zeros (or a stale epoch's frames) replay sees a
   clean end of log — silent truncation, indistinguishable from a crash
   just before the append, so nothing escalates to peer repair.  Worse,
   a lost superblock flip silently regresses the whole epoch.  So a sync
   is not believed until the staged sectors read back byte-for-byte;
   while [staged] still holds the truth, a mismatch is simply rewritten.
   Sectors with stable read corruption can never verify — after a few
   attempts we leave them to the crc, which is the detectable-damage
   path up the repair ladder. *)
let heal_attempts = 3

let each_dirty t f =
  let base = region_base t in
  let ok = ref true in
  for s = t.dirty_lo to t.dirty_hi do
    if not (f ~sector:(base + s) t.staged.(s)) then ok := false
  done;
  !ok

let rec sync_data t attempts =
  Disk.sync t.disk;
  if
    t.dirty_hi < t.dirty_lo
    || each_dirty t (fun ~sector expect ->
           String.equal (Disk.read t.disk ~sector) expect)
  then clear_dirty t
  else if attempts > 0 then begin
    ignore
      (each_dirty t (fun ~sector expect ->
           Disk.write t.disk ~sector expect;
           true));
    sync_data t (attempts - 1)
  end
  else clear_dirty t

let rec sync_superblock_at t slot attempts =
  match read_superblock t slot with
  | Some e when Int.equal e t.epoch -> true
  | _ when Int.equal attempts 0 -> false
  | _ ->
    write_superblock_at t ~slot t.epoch;
    Disk.sync t.disk;
    sync_superblock_at t slot (attempts - 1)

(* Keep the canonical slot honest on every sync; if its sector has
   stable read corruption, carry the epoch in the other slot instead
   (attach takes the max of the valid slots, so recovery still lands on
   the current epoch — the flip for epoch+1 will overwrite that slot
   with a larger value, preserving the alternation invariant). *)
let sync_superblock t =
  if not (sync_superblock_at t (t.epoch land 1) heal_attempts) then
    ignore (sync_superblock_at t (1 - (t.epoch land 1)) heal_attempts)

let sync t =
  if Int.equal t.len 0 then stage t [];
  sync_data t heal_attempts;
  sync_superblock t;
  t.syncs <- t.syncs + 1

(* Begin epoch+1 in the other region with [pieces] as its opening content;
   data is durable (and read-back verified) before the superblock flips,
   so a crash in between recovers the previous epoch intact. *)
let turn_over t pieces =
  let e = t.epoch + 1 in
  t.epoch <- e;
  t.len <- 0;
  Bytes.fill t.tail 0 (Bytes.length t.tail) '\000';
  clear_dirty t;
  stage t pieces;
  sync_data t heal_attempts;
  write_superblock t e;
  Disk.sync t.disk;
  sync_superblock t

let write_checkpoint t ?crc pieces =
  let len = total_length pieces in
  if header_len + len > region_bytes t then t.dropped <- t.dropped + 1
  else begin
    t.checkpoints <- t.checkpoints + 1;
    let crc =
      match crc with Some crc -> crc | None -> List.fold_left feed_piece Fnv.basis pieces
    in
    turn_over t (header ~kind:'C' ~epoch:(t.epoch + 1) ~len ~crc :: pieces)
  end

let reset t = turn_over t []

let stats t =
  {
    w_appends = t.appends;
    w_syncs = t.syncs;
    w_checkpoints = t.checkpoints;
    w_dropped = t.dropped;
  }
