(** Binary serialisation.

    Protocol messages are serialised with this codec before being signed, so
    signatures cover a well-defined byte string and message sizes charged to
    the simulated network are the real encoded sizes.  The format is a simple
    length-prefixed tagged encoding; it is not self-describing — reader and
    writer must agree on the layout, which the protocol message module
    guarantees by construction.

    All integers are written in little-endian fixed-width or LEB128 varint
    form; strings are varint-length-prefixed. *)

val varint_size : int -> int
(** Bytes the unsigned LEB128 encoding of a non-negative int occupies. *)

val put_varint : Bytes.t -> int -> int -> int
(** [put_varint b pos v] writes the LEB128 encoding of [v] at [pos] and
    returns the position after it: the bytes {!Writer.varint} appends, for
    a caller that sized its output with {!varint_size} and fills it once.
    @raise Invalid_argument when [v] is negative or does not fit. *)

val put_string : Bytes.t -> int -> string -> int
(** {!put_varint} of the length, then the raw bytes: {!Writer.string} in
    place.  @raise Invalid_argument when it does not fit. *)

module Writer : sig
  type t

  val create : ?size:int -> unit -> t
  (** [size] is the initial capacity (default 64); the buffer still grows. *)

  val u8 : t -> int -> unit
  (** @raise Invalid_argument when outside [0, 255]. *)

  val u16 : t -> int -> unit
  (** @raise Invalid_argument when outside [0, 65535]. *)

  val u32 : t -> int -> unit
  (** @raise Invalid_argument when outside [0, 2^32-1]. *)

  val varint : t -> int -> unit
  (** Unsigned LEB128.  @raise Invalid_argument when negative. *)

  val bool : t -> bool -> unit

  val string : t -> string -> unit
  (** Varint length prefix followed by the raw bytes. *)

  val raw : t -> string -> unit
  (** Raw bytes with no length prefix. *)

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** Varint count followed by each element. *)

  val option : t -> (t -> 'a -> unit) -> 'a option -> unit

  val contents : t -> string
  val length : t -> int
end

module Reader : sig
  type t

  exception Truncated
  (** Raised when reading past the end of the buffer or on a malformed
      varint.  This is the {e only} exception any reader raises on hostile
      input: oversized or negative length prefixes and element counts are
      rejected here rather than being allowed to reach [String.sub] or an
      allocator, so a decoder wrapped in a [Truncated] handler cannot be
      crashed by an adversarial byte string. *)

  val of_string : string -> t

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val varint : t -> int
  (** Canonical unsigned LEB128: overlong encodings (a zero final byte
      after the first) and values that would reach the sign bit raise
      [Truncated], so a varint that decodes re-encodes to its own bytes. *)

  val bool : t -> bool
  val string : t -> string
  val raw : t -> int -> string
  val list : t -> (t -> 'a) -> 'a list
  val option : t -> (t -> 'a) -> 'a option

  val remaining : t -> int
  val at_end : t -> bool

  val expect_end : t -> unit
  (** @raise Truncated if bytes remain. *)
end
