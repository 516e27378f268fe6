(** The protocol-hygiene rules (R1–R5, R7, R8 as one AST pass, R6 as a file check).

    Rules apply per directory scope, derived from path segments so fixture
    trees under [test/lint_fixtures/<segment>/] exercise the same rules as
    the real [lib/<segment>/] code. *)

type scope = {
  core : bool;
  crypto : bool;
  net : bool;
  sim : bool;
  storage : bool;
  in_lib : bool;
  report_sink : bool;
}

val scope_of_path : string -> scope

val lint_ast :
  scope:scope -> file:string -> Parsetree.structure -> Diagnostic.t list
(** Run R1–R5, R7 and R8 over a parsed implementation.  Diagnostics come back in no
    particular order, with empty [context] (the engine fills it in). *)

val missing_mli : scope:scope -> file:string -> Diagnostic.t option
(** R6: a lib [.ml] without a sibling [.mli]. *)
