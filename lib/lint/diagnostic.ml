type rule = R0 | R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8

let all_rules = [ R1; R2; R3; R4; R5; R6; R7; R8 ]

let rule_id = function
  | R0 -> "R0"
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"

let rule_of_id s =
  match String.uppercase_ascii s with
  | "R0" -> Some R0
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | _ -> None

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  message : string;
  context : string;  (* text of the offending source line, for allowlisting *)
}

let compare_pos a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match Int.compare a.col b.col with
      | 0 -> String.compare (rule_id a.rule) (rule_id b.rule)
      | c -> c)
    | c -> c)
  | c -> c

let pp fmt d =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" d.file d.line d.col (rule_id d.rule)
    d.message
