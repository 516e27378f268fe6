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
    sync reads back against.  The whole sectors inside a long piece come
    from a {!Cuts} memo that a deployment's logs share, so its
    replicas' disks hold one copy of each sector of a shared image. *)

(** The sector-cut memo of a deployment.

    Every replica of a deployment turns its log over with the same image
    at the same place in a sector, so each would cut the same sector
    strings out of it.  A memo holds the last 4 cuts, each keyed by the
    piece, the phase it starts at within a sector and the sector size, and
    its value is the piece's whole interior sectors.  A log that stages a
    piece of at least 4 sectors (a checkpoint's image, or a full batch's
    entry on 256 B sectors) whose piece ([String.equal], so
    the image string agreeing replicas share compares at once), phase and
    size equal a held entry's writes that entry's strings; otherwise it
    cuts them, and the memo holds the cut in place of its oldest entry.

    The answer is exact: a sector wholly inside a piece holds only bytes
    of that piece, at offsets the phase and size fix.  The memo keeps its
    4 cuts alive: over {!Sim_disk} they are the platter's own sector
    strings, over a file about 4 images more.  A memo is not thread-safe;
    its deployment uses it from one thread. *)
module Cuts : sig
  type t

  val create : unit -> t
  (** A memo of the last 4 cuts. *)

  val asked : t -> int
  (** Long pieces the logs staged. *)

  val cut : t -> int
  (** Of those, the pieces that missed and were cut. *)
end

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

val attach : ?cuts:Cuts.t -> Disk.t -> t
(** Mount the log: pick the newest valid superblock, walk the active
    region's frames, and position appends after the valid prefix.  A
    blank disk attaches as an empty epoch-0 log.  The log cuts long
    pieces through [cuts] (default: a memo of its own); a
    driver hands one memo to every log of a deployment. *)

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

val write_checkpoint : t -> ?crc:int -> string list -> unit
(** [write_checkpoint t pieces] starts a new epoch whose log is just one
    checkpoint frame, whose payload is the concatenation of [pieces] — the
    durable form of log truncation.  The sectors are cut straight from the
    pieces, so a caller holding an image and small framing passes them as
    pieces and the image is never joined into a second string; the whole
    sectors inside a piece of at least 4 sectors come from the log's
    {!Cuts} memo, so a deployment's replicas cut a shared image once.  [crc], if
    given, must be {!Sof_util.Fnv} over the joined payload, and saves the
    pass over it; a caller that already holds the checksum of a shared
    leading part extends it over the rest.  A wrong [crc] makes the frame
    read back as damage.  Dropped, with [w_dropped] bumped, if the frame
    exceeds a region. *)

val reset : t -> unit
(** Start a new, empty epoch: discards all logged state.  Used when
    restarting with no usable checkpoint so stale entries cannot be
    replayed twice. *)

val epoch : t -> int

val stats : t -> stats
