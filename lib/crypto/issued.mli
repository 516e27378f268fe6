(** A memo of the signatures a keyring has issued.

    In the simulator every node signs through one shared {!Keyring}, and a
    multicast signature is checked by each of its receivers.  Recomputing
    the stand-in MAC for every receiver is pure host cost: the virtual
    price of a verify is charged from the scheme's cost table either way.
    A memo records each [(signer, msg, signature)] triple that {!sign}
    returns and accepts a byte-identical triple by lookup.

    The answer is exact, not a cache of guesses.  A triple the keyring
    issued always verifies; a forged, tampered or re-attributed triple never
    matches an entry, so it goes to {!Keyring.verify} and is rejected there.
    The memo is bounded: it empties itself when full, and an evicted triple
    just costs one real verify again. *)

(** Hash tables keyed by a [(signer, msg, signature)] triple, compared on
    all three, holding at most {!capacity} entries. *)
module Table : sig
  type 'a t

  val create : unit -> 'a t

  val find_opt : 'a t -> signer:int -> msg:string -> signature:string -> 'a option

  val mem : 'a t -> signer:int -> msg:string -> signature:string -> bool

  val add : 'a t -> signer:int -> msg:string -> signature:string -> 'a -> unit
  (** Bind the triple, first emptying a table that already holds
      {!capacity} entries. *)

  val length : 'a t -> int
end

val capacity : int
(** 8,192 entries. *)

type t

val create : Keyring.t -> t
(** An empty memo over [keyring]; it answers for that keyring only. *)

val sign : t -> signer:int -> string -> string
(** {!Keyring.sign}, recording the triple.  Empty signatures (the unsigned
    scheme's) are not recorded: checking one costs nothing.
    @raise Invalid_argument as {!Keyring.sign}. *)

val verify : ?verifier:int -> t -> signer:int -> msg:string -> signature:string -> bool
(** Equal to {!Keyring.verify} with the same arguments: [true] at once for
    a recorded triple (and a [verifier], if given, in range), otherwise the
    keyring's answer. *)

val mem : t -> signer:int -> msg:string -> signature:string -> bool
(** Whether the triple is recorded now, i.e. {!verify} would not compute. *)

val length : t -> int
(** Triples recorded now; never more than {!capacity}. *)
