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
   flag is what sends recovery up the ladder to peer repair. *)

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

type t = {
  disk : Disk.t;
  region_sectors : int;
  mutable epoch : int;
  mutable mem : Buffer.t;  (* current epoch's valid log bytes *)
  mutable flushed : int;  (* prefix of [mem] already staged on disk *)
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

(* FNV-1a, 32-bit: tiny and entirely adequate for fault *detection* (the
   adversarial case is covered by signatures above this layer). *)
let crc s =
  let h = ref 0x811C9DC5 in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

let put_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF

let clear_dirty t =
  t.dirty_lo <- max_int;
  t.dirty_hi <- -1

let region_bytes t = t.region_sectors * t.disk.Disk.sector_size
let region_base t = 2 + (t.epoch land 1 * t.region_sectors)

let make_frame ~kind ~epoch payload =
  let b = Bytes.create (header_len + String.length payload) in
  Bytes.set b 0 kind;
  put_u32 b 1 epoch;
  put_u32 b 5 (String.length payload);
  put_u32 b 9 (crc payload);
  Bytes.blit_string payload 0 b header_len (String.length payload);
  Bytes.unsafe_to_string b

(* Sector [s] of [mem] as the disk should hold it, zero-padded past the
   end of the log: one sector's copy, never the whole log's. *)
let staged_sector t s =
  let ss = t.disk.Disk.sector_size in
  let off = s * ss in
  let sect = Bytes.make ss '\000' in
  let chunk = max 0 (min ss (Buffer.length t.mem - off)) in
  if chunk > 0 then Buffer.blit t.mem off sect 0 chunk;
  Bytes.unsafe_to_string sect

(* Stage every sector from the one containing [flushed] through the end
   of [mem], zero-padding the tail.  If the log ends exactly on a sector
   boundary, stage one extra zero sector as a terminator so stale frames
   from a previous occupancy of this region can never line up flush with
   our last frame. *)
let flush t =
  let ss = t.disk.Disk.sector_size in
  let len = Buffer.length t.mem in
  if len > t.flushed || Int.equal t.flushed 0 then begin
    let base = region_base t in
    let first = t.flushed / ss in
    let last = if Int.equal len 0 then 0 else (len - 1) / ss in
    for s = first to last do
      Disk.write t.disk ~sector:(base + s) (staged_sector t s)
    done;
    let hi =
      if Int.equal (len mod ss) 0 && len > 0 && last + 1 < t.region_sectors
      then begin
        Disk.write t.disk ~sector:(base + last + 1) (Disk.zeros t.disk);
        last + 1
      end
      else last
    in
    if first < t.dirty_lo then t.dirty_lo <- first;
    if hi > t.dirty_hi then t.dirty_hi <- hi;
    t.flushed <- len
  end

let write_superblock_at t ~slot epoch =
  let ss = t.disk.Disk.sector_size in
  let b = Bytes.make ss '\000' in
  Bytes.blit_string magic 0 b 0 4;
  put_u32 b 4 epoch;
  put_u32 b 8 (crc (Bytes.sub_string b 0 8));
  Disk.write t.disk ~sector:slot (Bytes.to_string b)

let write_superblock t epoch = write_superblock_at t ~slot:(epoch land 1) epoch

let read_superblock t slot =
  let s = Disk.read t.disk ~sector:slot in
  if String.length s >= 12
     && String.equal (String.sub s 0 4) magic
     && Int.equal (get_u32 s 8) (crc (String.sub s 0 8))
  then Some (get_u32 s 4)
  else None

(* Walk the active region's frames.  Returns the replay record plus the
   byte length of the valid prefix, which seeds [mem] so later appends
   overwrite any damaged suffix in place. *)
let parse_region t =
  let base = region_base t in
  let cap = region_bytes t in
  let ss = t.disk.Disk.sector_size in
  let region = Bytes.create cap in
  for s = 0 to t.region_sectors - 1 do
    Bytes.blit_string (Disk.read t.disk ~sector:(base + s)) 0 region (s * ss) ss
  done;
  let bytes = Bytes.unsafe_to_string region in
  let checkpoint = ref None in
  let entries = ref [] in
  let damaged = ref false in
  let rec go pos =
    if pos + header_len > cap then pos
    else
      let kind = bytes.[pos] in
      if Char.equal kind '\000' then pos
      else if not (Int.equal (get_u32 bytes (pos + 1)) t.epoch) then pos
      else if not (Char.equal kind 'C' || Char.equal kind 'E') then begin
        damaged := true;
        pos
      end
      else
        let len = get_u32 bytes (pos + 5) in
        if pos + header_len + len > cap then begin
          damaged := true;
          pos
        end
        else
          let payload = String.sub bytes (pos + header_len) len in
          if not (Int.equal (get_u32 bytes (pos + 9)) (crc payload)) then begin
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
  ( {
      rp_checkpoint = !checkpoint;
      rp_entries = List.rev !entries;
      rp_damaged = !damaged;
    },
    valid_len,
    bytes )

(* Mount the log as the disk holds it: whatever this handle had staged but
   not synced is dropped, and the counters carry over. *)
let remount t =
  clear_dirty t;
  t.epoch <-
    (match (read_superblock t 0, read_superblock t 1) with
    | Some a, Some b -> max a b
    | Some e, None | None, Some e -> e
    | None, None -> 0);
  let replay, valid_len, bytes = parse_region t in
  t.last_replay <- replay;
  Buffer.clear t.mem;
  Buffer.add_substring t.mem bytes 0 valid_len;
  t.flushed <- valid_len

let attach disk =
  let region_sectors = (disk.Disk.sector_count - 2) / 2 in
  let t =
    {
      disk;
      region_sectors;
      epoch = 0;
      mem = Buffer.create 1024;
      flushed = 0;
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
  let frame = make_frame ~kind:'E' ~epoch:t.epoch payload in
  if Buffer.length t.mem + String.length frame > region_bytes t then
    t.dropped <- t.dropped + 1
  else begin
    t.appends <- t.appends + 1;
    Buffer.add_string t.mem frame;
    flush t
  end

(* Read-back verification.  The per-frame crc catches bytes that rot on
   the platter, but not writes that never arrive: a lost or misdirected
   write leaves the target sector holding its *previous* content, and
   when that content is zeros (or a stale epoch's frames) replay sees a
   clean end of log — silent truncation, indistinguishable from a crash
   just before the append, so nothing escalates to peer repair.  Worse,
   a lost superblock flip silently regresses the whole epoch.  So a sync
   is not believed until the staged sectors read back byte-for-byte;
   while [mem] still holds the truth, a mismatch is simply restaged.
   Sectors with stable read corruption can never verify — after a few
   attempts we leave them to the crc, which is the detectable-damage
   path up the repair ladder. *)
let heal_attempts = 3

let each_dirty t f =
  let base = region_base t in
  let ok = ref true in
  for s = t.dirty_lo to t.dirty_hi do
    if not (f ~sector:(base + s) (staged_sector t s)) then ok := false
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
  flush t;
  sync_data t heal_attempts;
  sync_superblock t;
  t.syncs <- t.syncs + 1

(* Begin epoch+1 in the other region with [first] as its opening content;
   data is durable (and read-back verified) before the superblock flips,
   so a crash in between recovers the previous epoch intact. *)
let turn_over t first =
  let e = t.epoch + 1 in
  t.epoch <- e;
  t.mem <- Buffer.create 1024;
  (match first with Some frame -> Buffer.add_string t.mem frame | None -> ());
  t.flushed <- 0;
  clear_dirty t;
  flush t;
  sync_data t heal_attempts;
  write_superblock t e;
  Disk.sync t.disk;
  sync_superblock t

let write_checkpoint t payload =
  let frame = make_frame ~kind:'C' ~epoch:(t.epoch + 1) payload in
  if String.length frame > region_bytes t then t.dropped <- t.dropped + 1
  else begin
    t.checkpoints <- t.checkpoints + 1;
    turn_over t (Some frame)
  end

let reset t = turn_over t None

let stats t =
  {
    w_appends = t.appends;
    w_syncs = t.syncs;
    w_checkpoints = t.checkpoints;
    w_dropped = t.dropped;
  }
