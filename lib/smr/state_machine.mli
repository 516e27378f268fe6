(** Deterministic state machines.

    The replicated service is "constructed as a deterministic state machine"
    (paper, Section 2).  A machine consumes operation bytes and produces
    reply bytes; determinism — equal op sequences give equal reply sequences
    and equal state digests — is what total order buys. *)

type t

val create :
  name:string ->
  init:'s ->
  apply:('s -> string -> 's * string) ->
  digest:('s -> string) ->
  ?snapshot:('s -> string) ->
  ?restore:(string -> 's option) ->
  unit ->
  t
(** Wrap a pure transition function.  The state is hidden; [digest] lets
    tests compare replica states for equality.  [snapshot]/[restore] give
    checkpointing a portable state image: [snapshot] serialises the state,
    [restore] parses an image back (returning [None] to reject malformed
    bytes, which leaves the state untouched).  Machines without them
    snapshot to [""] and ignore restores, which disables state transfer but
    keeps everything else working. *)

val name : t -> string

val apply : t -> string -> string
(** Apply one operation, returning its reply. *)

val state_digest : t -> string
(** Fingerprint of the current state; equal across replicas that applied the
    same op sequence.  Computed once and kept until the next {!apply} or
    {!restore}. *)

val snapshot : t -> string
(** Serialised state image ([""] if the machine has no snapshot support). *)

val restore : t -> string -> unit
(** Install a previously snapshotted image, replacing the current state.
    Malformed images (and machines without restore support) are ignored. *)

val ops_applied : t -> int
