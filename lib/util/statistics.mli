(** Sample accumulation and summary statistics for experiment metrics. *)

type t
(** A mutable collection of float samples. *)

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two samples. *)

val stddev : t -> float

val min : t -> float
(** @raise Invalid_argument when empty. *)

val max : t -> float
(** @raise Invalid_argument when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0, 100], linear interpolation between
    closest ranks.  @raise Invalid_argument when empty or [p] out of range. *)

val median : t -> float

val to_list : t -> float list
(** Samples in insertion order. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summarize : t -> summary
(** @raise Invalid_argument when empty. *)
