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

val machine : unit -> State_machine.t
(** A fresh, empty store.  Malformed operation bytes yield a deterministic
    error reply rather than an exception (a Byzantine client must not crash
    replicas).

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

val pp_op : Format.formatter -> op -> unit
val pp_reply : Format.formatter -> reply -> unit
