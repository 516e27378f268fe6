(** FNV-1a, 32-bit: the checksum of the write-ahead log's frames and
    superblocks and of the simulated channel's data and ack frames.

    Tiny and adequate for fault {e detection}; the adversarial case is
    covered by signatures above both users.  A hash is an [int] in
    [[0, 2^32)], fed incrementally, so a frame held as several pieces is
    checksummed without joining them. *)

val basis : int
(** The offset basis, [0x811c9dc5]: the hash of the empty input. *)

val feed_byte : int -> int -> int
(** [feed_byte h b] mixes the byte [b] (in [[0, 255]]) into [h]. *)

val feed : int -> string -> pos:int -> len:int -> int
(** [feed h s ~pos ~len] mixes [s.[pos]] .. [s.[pos + len - 1]] into [h].
    @raise Invalid_argument if the range is not inside [s]. *)

val string : string -> int
(** The hash of a whole string: [feed basis s ~pos:0 ~len:(String.length s)]. *)
