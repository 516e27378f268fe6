(* Deterministic in-memory disk with a two-level store: [volatile] holds
   writes staged since the last sync (the drive cache), [stable] holds
   what survives a crash.  The fault atlas intercepts writes (lost,
   misdirected), reads of stable data (corrupt sectors), and the crash
   itself (tearing the last flushed sector — the drive acknowledged the
   flush but only a prefix reached the platter). *)

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

let do_write t sector data =
  t.writes <- t.writes + 1;
  match t.atlas with
  | None -> Hashtbl.replace t.volatile sector data
  | Some atlas ->
    if Fault_atlas.lose_write atlas then t.lost <- t.lost + 1
    else (
      match Fault_atlas.misdirect atlas ~sector_count:t.sector_count with
      | Some wrong ->
        t.misdirected <- t.misdirected + 1;
        Hashtbl.replace t.volatile wrong data
      | None -> Hashtbl.replace t.volatile sector data)

(* The last flushed sector, the one a crash may tear, is the highest one
   this sync makes durable. *)
let do_sync t =
  t.syncs <- t.syncs + 1;
  let last = ref (-1) in
  let last_data = ref "" in
  Hashtbl.iter
    (fun sector data ->
      note_slow t sector;
      t.stable.(sector) <- data;
      if sector > !last then begin
        last := sector;
        last_data := data
      end)
    t.volatile;
  if !last >= 0 then t.last_flushed <- Some (!last, !last_data);
  Hashtbl.reset t.volatile

let disk t =
  {
    Disk.sector_size = t.sector_size;
    sector_count = t.sector_count;
    read = do_read t;
    write = do_write t;
    sync = (fun () -> do_sync t);
  }

let crash t =
  Hashtbl.reset t.volatile;
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
