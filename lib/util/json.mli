(** Minimal JSON tree, writer, and reader.

    Just enough for the machine-readable benchmark pipeline: the [BENCH_*.json]
    documents are built as {!t} values, serialised with {!to_string}, and read
    back by {!of_string} in the golden-schema tests.  No external dependency:
    the container's opam switch carries no JSON library, so this stays
    hand-rolled and small. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val num_of_int : int -> t

val to_string : t -> string
(** Compact single-line rendering.  Strings are escaped per RFC 8259;
    non-finite numbers render as [null] (JSON has no NaN/inf). *)

val of_string : string -> t
(** Strict parser for the subset {!to_string} emits plus insignificant
    whitespace.  Raises {!Parse_error} on malformed input or trailing
    garbage. *)

(** {2 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
(** [member key j] looks up [key] when [j] is an [Obj]. *)

val path : string list -> t -> t option
(** [path ["a"; "b"] j] = [member "a" j |> member "b"]. *)

val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
