(** Request batches.

    The coordinator's second optimisation (paper Section 4.3) amortises the
    protocol over batches: one [order] covers every request accumulated
    during a batching interval, capped at [batch_size_limit] encoded bytes.
    A batch's digest stands for the batch in every protocol message. *)

type t = { requests : Sof_smr.Request.t list }

val make : Sof_smr.Request.t list -> t

val keys : t -> Sof_smr.Request.key list

val encode : t -> string
(** The concatenated encoded requests. *)

val digest : Sof_crypto.Digest_alg.t -> t -> string
(** Digest of {!encode} — recomputable by any process holding the same
    requests. *)

val encoded_size : t -> int
(** Total encoded request bytes (what the 1 KB cap limits). *)

val request_count : t -> int

val take_from_pool :
  limit:int ->
  pool:Sof_smr.Request.t Sof_smr.Request.Key_map.t ->
  Sof_smr.Request.t list
(** Greedily take requests from [pool] (in key order, so every correct
    coordinator picks deterministically) until adding the next would exceed
    [limit] bytes.  Always takes at least one request when the pool is
    non-empty. *)

val take_oldest :
  limit:int ->
  pool:Sof_smr.Request.t Sof_smr.Request.Key_map.t ->
  arrival:Sof_sim.Simtime.t Sof_smr.Request.Key_map.t ->
  Sof_smr.Request.t list
(** Like {!take_from_pool} but oldest-arrival-first (ties by key), so no
    client starves under backlog. *)

val pp : Format.formatter -> t -> unit
