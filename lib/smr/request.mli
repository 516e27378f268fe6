(** Client requests.

    The paper's clients are correct and "direct their requests to all nodes",
    so an order message never carries the request body — only its identity
    and a digest.  A request is identified by [(client, client_seq)]. *)

type key = { client : int; client_seq : int }
(** Unique request identity. *)

type t = {
  key : key;
  op : string;  (** Opaque operation bytes for the replicated service. *)
}

val make : client:int -> client_seq:int -> op:string -> t

val encode : t -> string
val decode : string -> t
(** @raise Sof_util.Codec.Reader.Truncated on malformed input. *)

val encoded_size : t -> int
(** [String.length (encode t)], computed without encoding. *)

val digest : Sof_crypto.Digest_alg.t -> t -> string
(** Digest of the encoded request. *)

val compare_key : key -> key -> int
val pp_key : Format.formatter -> key -> unit
val pp : Format.formatter -> t -> unit

module Key_map : Map.S with type key = key
module Key_set : Set.S with type elt = key

module Key_tbl : Hashtbl.S with type key = key
(** Mutable table over keys, for sets that only ever take [mem], [add] and
    [remove]; nothing may depend on its iteration order. *)
