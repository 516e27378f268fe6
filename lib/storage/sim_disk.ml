(* Deterministic in-memory disk with a two-level store: the staging table
   holds writes staged since the last sync (the drive cache), [stable]
   holds what survives a crash.  The fault atlas intercepts writes (lost,
   misdirected), reads of stable data (corrupt sectors), and the crash
   itself (tearing the last flushed sector — the drive acknowledged the
   flush but only a prefix reached the platter).

   The staging table is open addressing over [keys] and [vals], probed
   linearly from the sector number's low bits (a log stages runs of
   consecutive sectors, which land in consecutive slots), so staging,
   finding and flushing a sector hash nothing and allocate nothing.  A
   sync or crash empties the table but keeps its slots: a checkpoint
   stages hundreds of sectors, and a table shrunk after every sync would
   grow again five times over for each one.  So that a sync of one sector
   does not walk the hundreds of slots a checkpoint left, [dirty] lists
   the slots of the staged sectors, each once, and a sync flushes and
   empties just those.  Nothing depends on the flush order: each sector
   is staged once, and the atlas's slow-sector verdict is a stable
   property of the sector, not a draw.  A flushed sector keeps the string
   it was written with, so disks whose logs share a cut (Wal's memo) share
   the sector string too. *)

type stats = {
  sd_writes : int;
  sd_reads : int;
  sd_syncs : int;
  sd_lost : int;
  sd_misdirected : int;
  sd_torn : int;
  sd_corrupt_reads : int;
  sd_slow_ops : int;
}

type t = {
  sector_size : int;
  sector_count : int;
  atlas : Fault_atlas.t option;
  stable : string array;  (* unwritten sectors all hold one zero string *)
  mutable keys : int array;  (* by slot: the sector staged there, or -1;
                                a power of two long, at most half full *)
  mutable vals : string array;  (* by slot: the data staged *)
  mutable dirty : int array;
      (* the slots staged since the last sync, in staging order, in its
         first [dirty_count] entries; half as long as [keys] *)
  mutable dirty_count : int;
  mutable last_flushed : (int * string) option;
  mutable writes : int;
  mutable reads : int;
  mutable syncs : int;
  mutable lost : int;
  mutable misdirected : int;
  mutable torn : int;
  mutable corrupt_reads : int;
  mutable slow_ops : int;
}

let create ?atlas ~sector_size ~sector_count () =
  if sector_size < 16 then invalid_arg "Sim_disk.create: sector_size < 16";
  if sector_count < 4 then invalid_arg "Sim_disk.create: sector_count < 4";
  {
    sector_size;
    sector_count;
    atlas;
    stable = Array.make sector_count (String.make sector_size '\000');
    keys = Array.make 32 (-1);
    vals = Array.make 32 "";
    dirty = Array.make 16 0;
    dirty_count = 0;
    last_flushed = None;
    writes = 0;
    reads = 0;
    syncs = 0;
    lost = 0;
    misdirected = 0;
    torn = 0;
    corrupt_reads = 0;
    slow_ops = 0;
  }

(* Gray failure: the operation succeeds, but the sector drags.  The
   caller polls [stats] to convert the count into simulated CPU stall. *)
let note_slow t sector =
  match t.atlas with
  | Some atlas when Fault_atlas.slow_sector atlas ~sector ->
    t.slow_ops <- t.slow_ops + 1
  | Some _ | None -> ()

(* Deterministic single-byte damage: enough to break any checksum, cheap
   to apply on every read of an afflicted sector. *)
let corrupted t sector data =
  t.corrupt_reads <- t.corrupt_reads + 1;
  let b = Bytes.of_string data in
  let i = sector mod t.sector_size in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x55));
  Bytes.to_string b

(* The slot holding [sector], or the free slot it would take. *)
let rec probe keys sector i =
  let k = keys.(i) in
  if Int.equal k sector || k < 0 then i
  else probe keys sector ((i + 1) land (Array.length keys - 1))

let slot t sector = probe t.keys sector (sector land (Array.length t.keys - 1))

let do_read t sector =
  t.reads <- t.reads + 1;
  (* Reads mostly come right after a sync, when nothing is staged. *)
  let i = if t.dirty_count > 0 then slot t sector else -1 in
  if i >= 0 && t.keys.(i) >= 0 then t.vals.(i)
  else begin
    note_slow t sector;
    let data = t.stable.(sector) in
    match t.atlas with
    | Some atlas when Fault_atlas.corrupt_sector atlas ~sector ->
      corrupted t sector data
    | Some _ | None -> data
  end

(* Twice the slots, each staged sector moved to its slot there; the dirty
   list keeps its order. *)
let grow t =
  let n = 2 * Array.length t.keys in
  let keys = Array.make n (-1) and vals = Array.make n "" in
  let dirty = Array.make (n / 2) 0 in
  for j = 0 to t.dirty_count - 1 do
    let i = t.dirty.(j) in
    let sector = t.keys.(i) in
    let i' = probe keys sector (sector land (n - 1)) in
    keys.(i') <- sector;
    vals.(i') <- t.vals.(i);
    dirty.(j) <- i'
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.dirty <- dirty

(* A sector joins [dirty] the first time it is staged since the last
   sync. *)
let stage t sector data =
  if Int.equal t.dirty_count (Array.length t.dirty) then grow t;
  let i = slot t sector in
  if t.keys.(i) < 0 then begin
    t.keys.(i) <- sector;
    t.dirty.(t.dirty_count) <- i;
    t.dirty_count <- t.dirty_count + 1
  end;
  t.vals.(i) <- data

let do_write t sector data =
  t.writes <- t.writes + 1;
  match t.atlas with
  | None -> stage t sector data
  | Some atlas ->
    if Fault_atlas.lose_write atlas then t.lost <- t.lost + 1
    else (
      match Fault_atlas.misdirect atlas ~sector_count:t.sector_count with
      | Some wrong ->
        t.misdirected <- t.misdirected + 1;
        stage t wrong data
      | None -> stage t sector data)

(* The last flushed sector, the one a crash may tear, is the highest one
   this sync makes durable. *)
let do_sync t =
  t.syncs <- t.syncs + 1;
  let last = ref (-1) in
  let last_data = ref "" in
  for i = 0 to t.dirty_count - 1 do
    (* Listed once, when staged, and emptied only here or by [crash]; the
       table is not probed until all are. *)
    let at = t.dirty.(i) in
    let sector = t.keys.(at) and data = t.vals.(at) in
    t.keys.(at) <- -1;
    t.vals.(at) <- "";
    note_slow t sector;
    t.stable.(sector) <- data;
    if sector > !last then begin
      last := sector;
      last_data := data
    end
  done;
  t.dirty_count <- 0;
  if !last >= 0 then t.last_flushed <- Some (!last, !last_data)

let disk t =
  {
    Disk.sector_size = t.sector_size;
    sector_count = t.sector_count;
    read = do_read t;
    write = do_write t;
    sync = (fun () -> do_sync t);
  }

let crash t =
  for i = 0 to t.dirty_count - 1 do
    t.keys.(t.dirty.(i)) <- -1;
    t.vals.(t.dirty.(i)) <- ""
  done;
  t.dirty_count <- 0;
  (match (t.atlas, t.last_flushed) with
  | Some atlas, Some (sector, data) -> (
    match Fault_atlas.tear_length atlas ~sector_size:t.sector_size with
    | Some keep ->
      t.torn <- t.torn + 1;
      let b = Bytes.make t.sector_size '\000' in
      Bytes.blit_string data 0 b 0 keep;
      t.stable.(sector) <- Bytes.to_string b
    | None -> ())
  | _ -> ());
  t.last_flushed <- None

let stats t =
  {
    sd_writes = t.writes;
    sd_reads = t.reads;
    sd_syncs = t.syncs;
    sd_lost = t.lost;
    sd_misdirected = t.misdirected;
    sd_torn = t.torn;
    sd_corrupt_reads = t.corrupt_reads;
    sd_slow_ops = t.slow_ops;
  }
