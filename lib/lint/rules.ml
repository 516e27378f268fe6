(* The protocol-hygiene rules, as one pass of an [Ast_iterator] over a
   parsed implementation.  Rules are scoped by directory: the scope of a file
   is derived from its path segments, so fixture trees under
   [test/lint_fixtures/<segment>/] exercise the same rules as the real
   [lib/<segment>/] code. *)

open Parsetree

type scope = {
  core : bool;  (* lib/core: protocol decision logic *)
  crypto : bool;  (* lib/crypto: signatures and digests *)
  net : bool;  (* lib/net: channel and network substrate *)
  sim : bool;  (* lib/sim: the event engine and virtual time every run rides on *)
  storage : bool;  (* lib/storage: the disks and the write-ahead log *)
  in_lib : bool;  (* anywhere under lib/ (or a fixture standing in for it) *)
  report_sink : bool;  (* harness/report.ml: the one sanctioned printer *)
}

let split_path p =
  String.split_on_char '/' (String.concat "/" (String.split_on_char '\\' p))

let scope_of_path path =
  let segs = split_path path in
  let has s = List.mem s segs in
  let in_lib = has "lib" || has "lint_fixtures" in
  {
    core = in_lib && has "core";
    crypto = in_lib && has "crypto";
    net = in_lib && has "net";
    sim = in_lib && has "sim";
    storage = in_lib && has "storage";
    in_lib;
    report_sink =
      in_lib && has "harness" && Filename.basename path = "report.ml";
  }

(* ------------------------------------------------------------ helpers *)

let last_of (lid : Longident.t) =
  match Longident.flatten lid with
  | [] -> ""
  | l -> List.nth l (List.length l - 1)

(* "List.hd", "Stdlib.List.hd" and so on, as dot-joined text with any
   leading Stdlib dropped — the forms under which a stdlib value can be
   named without [open]. *)
let stdlib_name (lid : Longident.t) =
  match Longident.flatten lid with
  | "Stdlib" :: rest -> String.concat "." rest
  | l -> String.concat "." l

let is_poly_cmp_op lid =
  match stdlib_name lid with "=" | "<>" | "compare" -> true | _ -> false

let partial_stdlib = [ "List.hd"; "List.tl"; "List.nth"; "Option.get"; "Hashtbl.find" ]

let partial_hint = function
  | "List.hd" | "List.tl" | "List.nth" ->
    "match on the list shape or use a _opt variant"
  | "Option.get" -> "match on the option or use Option.value"
  | "Hashtbl.find" -> "use Hashtbl.find_opt and handle the miss"
  | _ -> "use a total variant"

(* Ambient nondeterminism for R7: every call answers differently run to run
   (or machine to machine), so protocol code reaching for one has schedule-
   or clock-dependent behaviour the model checker cannot enumerate.  All
   randomness must come from [Rng], all time from [Context.now]. *)
let ambient_clocks = [ "Unix.time"; "Unix.gettimeofday"; "Sys.time" ]

let is_ambient_nondet name =
  List.mem name ambient_clocks
  || name = "Random"
  || (String.length name > 7 && String.sub name 0 7 = "Random.")

(* Mutable-state allocators for R8: a module-level binding whose right-hand
   side is one of these (or an array literal) survives across protocol
   instances, so two runs of the same schedule can diverge and the
   checker's per-replica state hash misses it. *)
let mutable_allocators =
  [
    "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create";
    "Bytes.create"; "Bytes.make"; "Array.make"; "Array.create_float";
    "Array.init"; "Atomic.make";
  ]

let printers =
  [
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline";
  ]

(* The Message.body constructors: a match listing any of these is a
   message-dispatch match for R2. *)
let message_ctors =
  [
    "Order"; "Ack"; "Fail_signal"; "Back_log"; "Start"; "Start_ack";
    "Start_tuples"; "View_change"; "New_view"; "Unwilling"; "Heartbeat";
    "Pre_prepare"; "Prepare"; "Commit"; "Bft_view_change"; "Bft_new_view";
  ]

(* Comparison against a literal or a constant (nullary) constructor never
   recurses into unknown structure, so R1 exempts it: the polymorphic
   compare stops at the tag.  Everything else must go through a typed
   equal. *)
let rec constantish e =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true
  | Pexp_variant (_, None) -> true
  | Pexp_constraint (e, _) -> constantish e
  | _ -> false

let rec wildcardish p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> wildcardish p
  | Ppat_tuple ps -> List.for_all wildcardish ps
  | _ -> false

let rec pat_mentions_message_ctor p =
  match p.ppat_desc with
  | Ppat_construct (lid, arg) ->
    List.mem (last_of lid.txt) message_ctors
    || (match arg with
       | Some (_, p) -> pat_mentions_message_ctor p
       | None -> false)
  | Ppat_or (a, b) -> pat_mentions_message_ctor a || pat_mentions_message_ctor b
  | Ppat_tuple ps -> List.exists pat_mentions_message_ctor ps
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pat_mentions_message_ctor p
  | _ -> false

(* ---------------------------------------------------------------- pass *)

(* Does the structure define a top-level [let compare]?  Bare [compare]
   references in such a module resolve to the module's own typed compare,
   not Stdlib's; qualified [Stdlib.compare] stays flagged. *)
let defines_own_compare ast =
  List.exists
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
        List.exists
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt = "compare"; _ } -> true
            | _ -> false)
          bindings
      | _ -> false)
    ast

let lint_ast ~scope ~file ast =
  let own_compare = defines_own_compare ast in
  let r1 = scope.core || scope.crypto || scope.sim || scope.storage in
  let diags = ref [] in
  let add rule (loc : Location.t) message =
    let p = loc.loc_start in
    diags :=
      {
        Diagnostic.rule;
        file;
        line = p.pos_lnum;
        col = p.pos_cnum - p.pos_bol;
        message;
        context = "";
      }
      :: !diags
  in
  (* Operator idents examined as the head of an application are remembered
     so the bare-ident check below does not report them a second time. *)
  let seen_fn_idents : (Location.t, unit) Hashtbl.t = Hashtbl.create 32 in
  let is_stdlib_compare lid =
    stdlib_name lid = "compare"
    && not (own_compare && (match lid with Longident.Lident _ -> true | _ -> false))
  in
  let check_bare_ident lid (loc : Location.t) =
    if r1 && is_stdlib_compare lid then
      add Diagnostic.R1 loc
        "polymorphic compare; use the type's own compare/equal";
    let name = stdlib_name lid in
    if scope.core || scope.net then
      if List.mem name partial_stdlib then
        add Diagnostic.R3 loc
          (Printf.sprintf "partial %s; %s" name (partial_hint name));
    if scope.core && (name = "failwith" || name = "invalid_arg") then
      add Diagnostic.R4 loc
        (Printf.sprintf
           "%s in protocol code; return a typed error or raise a dedicated \
            exception"
           name);
    if scope.in_lib && not scope.report_sink then
      if List.mem name printers then
        add Diagnostic.R5 loc
          (Printf.sprintf "%s prints directly; route output through \
                           Report/Metrics" name);
    if (scope.core || scope.net) && is_ambient_nondet name then
      add Diagnostic.R7 loc
        (Printf.sprintf
           "%s is ambient nondeterminism; route randomness through Rng and \
            time through Context.now so schedules are the only source of \
            choice" name)
  in
  let check_dispatch_cases cases =
    if List.exists (fun c -> pat_mentions_message_ctor c.pc_lhs) cases then
      List.iter
        (fun c ->
          if wildcardish c.pc_lhs then
            add Diagnostic.R2 c.pc_lhs.ppat_loc
              "catch-all case in a message-dispatch match; list the \
               remaining variants explicitly")
        cases
  in
  let expr iter e =
    (match e.pexp_desc with
    | Pexp_apply (({ pexp_desc = Pexp_ident lid; _ } as fn), args)
      when is_poly_cmp_op lid.txt ->
      Hashtbl.replace seen_fn_idents fn.pexp_loc ();
      if r1 then begin
        let name = stdlib_name lid.txt in
        if name = "compare" then begin
          if is_stdlib_compare lid.txt then
            add Diagnostic.R1 e.pexp_loc
              "polymorphic compare; use the type's own compare/equal"
        end
        else if not (List.exists (fun (_, a) -> constantish a) args) then
          add Diagnostic.R1 e.pexp_loc
            (Printf.sprintf
               "polymorphic %s on computed operands; use a typed equal"
               name)
      end
    | Pexp_ident lid when not (Hashtbl.mem seen_fn_idents e.pexp_loc) ->
      (* A bare [=] / [<>] passed as a function value is as polymorphic as
         an applied one. *)
      (match stdlib_name lid.txt with
      | ("=" | "<>") when r1 ->
        add Diagnostic.R1 e.pexp_loc
          "polymorphic equality passed as a function; use a typed equal"
      | _ -> ());
      check_bare_ident lid.txt e.pexp_loc
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
      when scope.core ->
      add Diagnostic.R4 e.pexp_loc
        "assert false in protocol code; return a typed error or raise a \
         dedicated exception"
    | Pexp_match (_, cases) when scope.core -> check_dispatch_cases cases
    | Pexp_function cases when scope.core -> check_dispatch_cases cases
    | _ -> ());
    Ast_iterator.default_iterator.expr iter e
  in
  (* R8: a structure-level [let] whose right-hand side syntactically
     allocates mutable state.  Bindings inside functions are per-call and
     fine; this only fires on module-level items (including submodules),
     which the iterator visits as structure items. *)
  let rec mutable_alloc e =
    match e.pexp_desc with
    | Pexp_constraint (e, _) -> mutable_alloc e
    | Pexp_array _ -> Some "array literal"
    | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, _) ->
      let name = stdlib_name lid.txt in
      if List.mem name mutable_allocators then Some name else None
    | _ -> None
  in
  let structure_item iter item =
    (match item.pstr_desc with
    | Pstr_value (_, bindings) when scope.core ->
      List.iter
        (fun vb ->
          match mutable_alloc vb.pvb_expr with
          | Some what ->
            add Diagnostic.R8 vb.pvb_loc
              (Printf.sprintf
                 "module-level mutable state (%s); keep mutable state inside \
                  the protocol's [t] so canonical state hashing sees it" what)
          | None -> ())
        bindings
    | _ -> ());
    Ast_iterator.default_iterator.structure_item iter item
  in
  let iter = { Ast_iterator.default_iterator with expr; structure_item } in
  iter.structure iter ast;
  !diags

let missing_mli ~scope ~file =
  if scope.in_lib && Filename.check_suffix file ".ml" && not (Sys.file_exists (file ^ "i"))
  then
    Some
      {
        Diagnostic.rule = Diagnostic.R6;
        file;
        line = 1;
        col = 0;
        message = "module has no interface file (.mli)";
        context = "";
      }
  else None
