(** A deterministic key-value store service.

    The kind of service the paper's replication scheme hosts.  Operations
    are encoded to bytes with {!encode_op} (clients) and interpreted by the
    machine (replicas). *)

type op =
  | Get of string
  | Put of string * string
  | Delete of string
  | Cas of { key : string; expected : string; replacement : string }
      (** Compare-and-swap: succeeds only when the current value equals
          [expected]. *)

type reply =
  | Value of string
  | Not_found
  | Ok
  | Cas_failed

val encode_op : op -> string
val decode_op : string -> op
(** @raise Sof_util.Codec.Reader.Truncated on malformed input. *)

val encode_reply : reply -> string
val decode_reply : string -> reply

(** A deployment's memo of the merges its stores make and the operations
    they decode.

    Correct replicas reach a checkpoint holding the same image and the same
    writes since it, so each of a deployment's n stores would merge the
    same bytes into the same new image.  A memo holds the last 4
    merges, each keyed by the prior image and the writes sorted by key, and
    its value is the merged image and its entry offsets.  A store whose
    prior image equals a held entry's ([String.equal], so the shared string
    of agreeing stores compares at once) and whose writes are that entry's
    (as many, each key written alike: found without sorting them) adopts
    that image and those offsets as they are; otherwise it sorts its writes
    and merges, and the memo holds the result in place of its oldest
    entry.

    The stores also apply the same operations, so the memo holds the last
    32 operations decoded, each keyed by its bytes.  A store applying bytes
    [String.equal] to a held entry's takes that entry's operation, and the
    stores share its key and value strings; otherwise it runs
    {!decode_op}, and the memo holds the result in place of its oldest
    entry.  Bytes that do not decode are never held.  Keys are compared by
    content, so stores that each received their own copy of a request (a
    TCP deployment's) hit too.

    The answers are exact: a merge is a function of the prior image's bytes
    and the writes alone, and an operation of its bytes alone.  A memo is
    not thread-safe; its deployment uses it from one thread. *)
module Memo : sig
  type t

  val create : unit -> t
  (** A memo of the last 4 merges and the last 32 operations. *)

  val merges_asked : t -> int
  (** Merges the stores asked for: snapshots and digests with writes to
      fold in. *)

  val merged : t -> int
  (** Of those, the merges that missed and were made. *)

  val merges_held : t -> int
  (** Merges held now; never more than 4. *)

  val ops_asked : t -> int
  (** Operations the stores applied. *)

  val ops_decoded : t -> int
  (** Of those, the operations that missed and were decoded, malformed
      ones included. *)
end

val machine : ?memo:Memo.t -> unit -> State_machine.t
(** A fresh, empty store that merges and decodes operations through [memo]
    (default: a memo of its own).  Malformed operation bytes yield a
    deterministic error reply rather than an exception (a Byzantine client
    must not crash replicas).

    The store keeps its image as of its last snapshot or digest (the bytes
    {!State_machine.snapshot} returns: a varint count, then each key and
    value as a length-prefixed string, keys strictly increasing), the
    offset of each entry in it, and a hash-table overlay of the writes
    since.  Reads look in the overlay first, then binary-search the image.
    {!State_machine.snapshot} and {!State_machine.state_digest} merge the
    overlay into a new image, copying the runs between written keys whole,
    so images and digests are those of the sorted store alone.
    {!State_machine.restore} keeps an image whose keys strictly increase as
    it is; one with keys out of order or repeated is rebuilt, the last
    entry of a key winning; a truncated image, or one with bytes after its
    last entry, is refused and the store keeps its state. *)

val machines : unit -> unit -> State_machine.t
(** [machines ()] is one deployment's maker of stores: every store it
    makes, a first one or a restarted one, shares the same fresh memo. *)

val pp_op : Format.formatter -> op -> unit
val pp_reply : Format.formatter -> reply -> unit
