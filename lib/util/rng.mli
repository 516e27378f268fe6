(** Deterministic pseudo-random number generation.

    The simulator must be reproducible across runs and platforms, so we do not
    use [Stdlib.Random] (whose algorithm may change between compiler
    releases).  This is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny,
    fast, and passes BigCrush when used as a 64-bit generator. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator.  Equal seeds give equal
    streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream.  Used to give
    each simulated node its own stream so that adding a node does not perturb
    the others. *)

val seed : t -> int64
(** The seed this generator was created with (unchanged by drawing). *)

val substream : t -> string -> t
(** [substream t label] is a labelled child generator derived from [t]'s
    {e creation seed} and [label] only — unlike {!split} it does not consume
    from (or depend on the consumption of) the parent stream.  Equal
    (seed, label) pairs give equal streams on every call; distinct labels
    give statistically independent streams.  This is what the model checker
    and harness use to hand subsystems their own deterministic streams
    without ad-hoc reseeding arithmetic. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val bytes : t -> int -> bytes
(** [bytes t n] is [n] uniform random bytes. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian via Box–Muller. *)
