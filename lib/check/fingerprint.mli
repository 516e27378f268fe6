(** Canonical state hashing for the visited set.

    A fingerprint accumulator feeds length-prefixed fields straight into a
    64-bit FNV-1a hash as they are added: nothing is buffered and no byte
    allocates.  A field is its decimal text: an int is ["<n>;"], a bool
    the int 0 or 1, a string ["<length>:<bytes>"].  {!World.fingerprint} decides
    {e what} goes in (and, as importantly, what stays out: the virtual
    clock, message and timer identifiers, event timestamps); this module
    only supplies the injective encoding and the hash. *)

type acc

val create : unit -> acc
val add_string : acc -> string -> unit
val add_int : acc -> int -> unit
val add_bool : acc -> bool -> unit
val digest : acc -> int64

val add_acc : acc -> acc -> unit
(** [add_acc t other] adds [other]'s current 64-bit hash to [t] as two
    int fields; [other] is unchanged.  A sequence hashed as it grows can
    so enter a fingerprint without being walked again. *)

val encode_event : Sof_protocol.Context.event -> string
(** Injective-per-constructor encoding of an event, including the digest
    fields {!Sof_protocol.Context.pp_event} elides.  Timestamps are not an
    event field, so per-process event sequences hash identically across
    commuting interleavings. *)
