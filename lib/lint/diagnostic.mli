(** Lint findings: rule identifiers and positioned diagnostics. *)

type rule = R0 | R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8

val all_rules : rule list
(** The selectable rules (R1–R8; R0, the parse-error rule, is always on). *)

val rule_id : rule -> string
val rule_of_id : string -> rule option

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  message : string;
  context : string;  (** text of the offending source line, for allowlisting *)
}

val compare_pos : t -> t -> int
(** Order by file, then line, column and rule id. *)

val pp : Format.formatter -> t -> unit
(** [file:line:col: [Rn] message] — one line per diagnostic. *)
