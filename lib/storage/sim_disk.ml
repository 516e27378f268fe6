(* Deterministic in-memory disk with a two-level store: [volatile] holds
   writes staged since the last sync (the drive cache), [stable] holds
   what survives a crash.  The fault atlas intercepts writes (lost,
   misdirected), reads of stable data (corrupt sectors), and the crash
   itself (tearing the last flushed sector — the drive acknowledged the
   flush but only a prefix reached the platter).  A sync or crash empties
   [volatile] but keeps its buckets: a checkpoint stages hundreds of
   sectors, and a table shrunk after every sync would grow again five times
   over for each one.  So that a sync of one sector does not walk the
   hundreds of buckets a checkpoint left, [dirty] lists the staged sectors,
   each once, and a sync flushes and removes just those.  Nothing depends
   on the flush order: each sector is staged once, and the atlas's
   slow-sector verdict is a stable property of the sector, not a draw. *)

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
  volatile : (int, string) Hashtbl.t;
  mutable dirty : int array;
      (* the sectors staged since the last sync, [volatile]'s keys, in its
         first [dirty_count] slots; grown, never shrunk *)
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
    volatile = Hashtbl.create 16;
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

let do_read t sector =
  t.reads <- t.reads + 1;
  (* Reads mostly come right after a sync, when nothing is staged. *)
  match
    if Hashtbl.length t.volatile > 0 then Hashtbl.find_opt t.volatile sector else None
  with
  | Some data -> data
  | None -> (
    note_slow t sector;
    let data = t.stable.(sector) in
    match t.atlas with
    | Some atlas when Fault_atlas.corrupt_sector atlas ~sector ->
      corrupted t sector data
    | Some _ | None -> data)

(* A sector joins [dirty] when the table grew, i.e. the first time it is
   staged since the last sync. *)
let stage t sector data =
  let held = Hashtbl.length t.volatile in
  Hashtbl.replace t.volatile sector data;
  if Hashtbl.length t.volatile > held then begin
    if Int.equal t.dirty_count (Array.length t.dirty) then begin
      let grown = Array.make (2 * t.dirty_count) 0 in
      Array.blit t.dirty 0 grown 0 t.dirty_count;
      t.dirty <- grown
    end;
    t.dirty.(t.dirty_count) <- sector;
    t.dirty_count <- t.dirty_count + 1
  end

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
    let sector = t.dirty.(i) in
    (* Listed once, when staged, and removed only here or by [crash]. *)
    let data = Hashtbl.find t.volatile sector in
    Hashtbl.remove t.volatile sector;
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
  Hashtbl.clear t.volatile;
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
