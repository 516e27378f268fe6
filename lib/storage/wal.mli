(** Write-ahead log of delivered batches plus checkpoint images, over a
    {!Disk.t}.

    Two data regions alternate: a checkpoint starts a new epoch in the
    other region, which logically truncates the log (the old region's
    frames carry a stale epoch and read as a clean end).  Every frame is
    checksummed and epoch-stamped; {!replay} distinguishes a clean end of
    log from a damaged suffix (torn or corrupt frames), which is the
    signal to fall back from local replay to peer repair.

    Crash safety: a checkpoint's data is written and synced before the
    superblock flips to the new epoch, so a crash mid-checkpoint recovers
    the previous epoch intact.  Appends overwrite any damaged suffix
    found at attach time.

    Memory: a handle keeps no copy of the log, only the partial last
    sector and the sectors written since the last {!sync}, which that
    sync reads back against. *)

type t

type replay = {
  rp_checkpoint : string option;
      (** latest checkpoint frame payload, if any *)
  rp_entries : string list;  (** entry payloads after that checkpoint, in order *)
  rp_damaged : bool;  (** the log ended in damage, not a clean end *)
}

type stats = {
  w_appends : int;
  w_syncs : int;
  w_checkpoints : int;
  w_dropped : int;  (** appends/checkpoints dropped on region overflow *)
}

val attach : Disk.t -> t
(** Mount the log: pick the newest valid superblock, walk the active
    region's frames, and position appends after the valid prefix.  A
    blank disk attaches as an empty epoch-0 log. *)

val remount : t -> unit
(** Mount the log again, as after a crash: drop the in-memory head and any
    frames staged since the last {!sync}, then re-read the disk exactly as
    {!attach} does.  The {!stats} counters carry over, so one handle can
    serve a node for a whole run. *)

val replay : t -> replay
(** What the last {!attach} or {!remount} recovered from the disk. *)

val append : t -> string -> unit
(** Stage an entry frame (durable only after {!sync}).  Dropped, with the
    [w_dropped] counter bumped, if the region is full. *)

val sync : t -> unit
(** Make all staged frames durable, then read the staged sectors (and the
    current epoch's superblock) back and rewrite on mismatch, a bounded
    number of times.  Lost and misdirected writes leave the old sector
    content in place — which replay would see as a clean, shorter log, a
    silent truncation no checksum catches — so a sync is not believed
    until it verifies.  Stable read corruption cannot verify and is left
    to the per-frame crc, the detectable-damage path to peer repair. *)

val write_checkpoint : t -> string list -> unit
(** [write_checkpoint t pieces] starts a new epoch whose log is just one
    checkpoint frame, whose payload is the concatenation of [pieces] — the
    durable form of log truncation.  The sectors are cut straight from the
    pieces, so a caller holding an image and a small header passes
    [[header; image]] and the image is never joined into a second string.
    Dropped, with [w_dropped] bumped, if the frame exceeds a region. *)

val reset : t -> unit
(** Start a new, empty epoch: discards all logged state.  Used when
    restarting with no usable checkpoint so stale entries cannot be
    replayed twice. *)

val epoch : t -> int

val stats : t -> stats
