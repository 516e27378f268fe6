(* Hand-rolled JSON tree: the benchmark pipeline needs a writer and a
   strict reader, and the opam switch carries no JSON library, so this
   implements the small subset we emit ourselves. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let num_of_int i = Num (float_of_int i)

(* ------------------------------------------------------------------ *)
(* Writer                                                             *)
(* ------------------------------------------------------------------ *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else begin
    (* Shortest decimal that parses back to the same float. *)
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f
  end

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Num f ->
    if not (Float.is_finite f) then
      (* NaN or +/-inf: JSON has no spelling for these. *)
      Buffer.add_string buf "null"
    else Buffer.add_string buf (number_to_string f)
  | Str s -> escape_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (key, value) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf key;
        Buffer.add_char buf ':';
        write buf value)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  write buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader: recursive descent over a string with a mutable cursor.     *)
(* ------------------------------------------------------------------ *)

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "offset %d: %s" cur.pos msg))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      go ()
    | _ -> ()
  in
  go ()

let expect cur c =
  match peek cur with
  | Some got when Char.equal got c -> advance cur
  | Some got -> fail cur (Printf.sprintf "expected %c, found %c" c got)
  | None -> fail cur (Printf.sprintf "expected %c, found end of input" c)

let literal cur word value =
  let len = String.length word in
  if
    cur.pos + len <= String.length cur.src
    && String.equal (String.sub cur.src cur.pos len) word
  then begin
    cur.pos <- cur.pos + len;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
      | Some '"' -> Buffer.add_char buf '"'; advance cur
      | Some '\\' -> Buffer.add_char buf '\\'; advance cur
      | Some '/' -> Buffer.add_char buf '/'; advance cur
      | Some 'n' -> Buffer.add_char buf '\n'; advance cur
      | Some 'r' -> Buffer.add_char buf '\r'; advance cur
      | Some 't' -> Buffer.add_char buf '\t'; advance cur
      | Some 'b' -> Buffer.add_char buf '\b'; advance cur
      | Some 'f' -> Buffer.add_char buf '\012'; advance cur
      | Some 'u' ->
        advance cur;
        if cur.pos + 4 > String.length cur.src then fail cur "truncated \\u escape";
        let hex = String.sub cur.src cur.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex)
          with Failure _ -> fail cur "bad \\u escape"
        in
        cur.pos <- cur.pos + 4;
        (* We only ever emit \u00xx for control characters; decode the
           BMP code point as UTF-8 so round-trips stay lossless. *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
      | _ -> fail cur "bad escape");
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance cur;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek cur with
    | Some c when is_num_char c ->
      advance cur;
      go ()
    | _ -> ()
  in
  go ();
  if cur.pos = start then fail cur "expected a number";
  let text = String.sub cur.src start (cur.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> fail cur (Printf.sprintf "bad number %S" text)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> Str (parse_string cur)
  | Some '[' ->
    advance cur;
    skip_ws cur;
    (match peek cur with
    | Some ']' ->
      advance cur;
      List []
    | _ ->
      let rec items acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (v :: acc)
        | Some ']' ->
          advance cur;
          List.rev (v :: acc)
        | _ -> fail cur "expected , or ] in array"
      in
      List (items []))
  | Some '{' ->
    advance cur;
    skip_ws cur;
    (match peek cur with
    | Some '}' ->
      advance cur;
      Obj []
    | _ ->
      let field () =
        skip_ws cur;
        let key = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        (key, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          fields (kv :: acc)
        | Some '}' ->
          advance cur;
          List.rev (kv :: acc)
        | _ -> fail cur "expected , or } in object"
      in
      Obj (fields []))
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %c" c)

let of_string s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage after value";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let path keys j =
  List.fold_left
    (fun acc key ->
      match acc with
      | Some j -> member key j
      | None -> None)
    (Some j) keys

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
