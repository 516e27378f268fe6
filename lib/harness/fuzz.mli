(** Seeded decode fuzzing over the wire-format entry points.

    An adversary controls every byte an honest node's decoder sees, so the
    contract is: {!Sof_protocol.Message.decode}, [decode_body] and
    {!Sof_smr.Request.decode} either return a value or raise
    [Codec.Reader.Truncated] — never anything else, on any input — and a
    value they return re-encodes to exactly the bytes it was decoded from.
    Receivers verify signatures over the received body bytes, which means
    what a signature over the decoded body means only under that second
    clause.  This module checks the contract over a seeded corpus of
    hostile buffers (pure garbage, truncations, bit flips, hostile length
    prefixes, and trailing junk grafted onto structurally valid
    encodings). *)

type outcome = {
  runs : int;  (** Total decode attempts (3 entry points per buffer). *)
  decoded : int;  (** Survived decoding (mutation kept the format valid). *)
  rejected : int;  (** Raised [Truncated] — the recoverable rejection. *)
  crashes : (int * string) list;
      (** (iteration, exception) for every non-[Truncated] escape. *)
  non_canonical : (int * string) list;
      (** (iteration, decoder) for every decoded value whose re-encoding
          differs from the bytes the decoder consumed. *)
}

val run : seed:int64 -> count:int -> outcome
(** Fuzz [count] buffers deterministically from [seed].  Each buffer is fed
    to all three decode entry points. *)

val run_storage : seed:int64 -> count:int -> outcome
(** Same contract over the durable-state decoders: checkpoint certificates
    and state-transfer entries ({!Sof_protocol.Checkpoint.read_cert} /
    [read_entry], canonical over the bytes they consume), checkpoint
    images ([unwrap_image], whose recoverable rejection is [None], canonical
    against [wrap_image]), and write-ahead-log recovery —
    {!Sof_storage.Wal.attach} over a used log whose disk was scribbled
    with seeded garbage must always yield a replay (damaged at worst),
    never an escape.  Four probes per iteration. *)

val passed : outcome -> bool
(** No crashes and no non-canonical decodes. *)

val pp_outcome : Format.formatter -> outcome -> unit
