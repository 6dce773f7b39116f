type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> fail "expected '%c' at %d, got '%c'" c st.pos x
  | None -> fail "expected '%c' at %d, got end of input" c st.pos

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string at %d" st.pos
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail "dangling escape at %d" st.pos
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                (* ASCII subset only; enough for everything we emit *)
                if st.pos + 4 > String.length st.s then
                  fail "truncated \\u escape at %d" st.pos;
                let hex = String.sub st.s st.pos 4 in
                st.pos <- st.pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape %S at %d" hex st.pos
                in
                if code < 128 then Buffer.add_char buf (Char.chr code)
                else Buffer.add_char buf '?'
            | c -> fail "bad escape '\\%c' at %d" c st.pos);
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek st with Some c when num_char c -> true | _ -> false do
    advance st
  done;
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail "bad number %S at %d" text start

let literal st word value =
  let len = String.length word in
  if
    st.pos + len <= String.length st.s && String.sub st.s st.pos len = word
  then begin
    st.pos <- st.pos + len;
    value
  end
  else fail "bad literal at %d" st.pos

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input at %d" st.pos
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      advance st;
      skip_ws st;
      (match peek st with
      | Some '}' ->
          advance st;
          Obj []
      | _ ->
          let rec members acc =
            skip_ws st;
            let key = parse_string st in
            skip_ws st;
            expect st ':';
            let v = parse_value st in
            skip_ws st;
            match peek st with
            | Some ',' ->
                advance st;
                members ((key, v) :: acc)
            | Some '}' ->
                advance st;
                List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}' at %d" st.pos
          in
          Obj (members []))
  | Some '[' ->
      advance st;
      skip_ws st;
      (match peek st with
      | Some ']' ->
          advance st;
          Arr []
      | _ ->
          let rec elements acc =
            let v = parse_value st in
            skip_ws st;
            match peek st with
            | Some ',' ->
                advance st;
                elements (v :: acc)
            | Some ']' ->
                advance st;
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']' at %d" st.pos
          in
          Arr (elements []))
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> Num (parse_number st)

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at %d" st.pos)
      else Ok v
  | exception Parse_error e -> Error e

let parse_exn s =
  match parse s with Ok v -> v | Error e -> raise (Parse_error e)

(* -- accessors -- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let mem path v =
  List.fold_left
    (fun acc name -> match acc with Some v -> member name v | None -> None)
    (Some v) path

let to_float = function Num f -> Some f | _ -> None
let to_int = function Num f -> Some (int_of_float f) | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr l -> Some l | _ -> None

let float_at path v = Option.bind (mem path v) to_float
let int_at path v = Option.bind (mem path v) to_int
let string_at path v = Option.bind (mem path v) to_string
let bool_at path v = Option.bind (mem path v) to_bool

(* -- writer -- *)

let needs_escape c = c = '"' || c = '\\' || c < ' '

let str s =
  if not (String.exists needs_escape s) then "\"" ^ s ^ "\""
  else begin
    let buf = Buffer.create (String.length s + 8) in
    Buffer.add_char buf '"';
    String.iter
      (function
        | ('"' | '\\') as c -> Buffer.add_char buf '\\'; Buffer.add_char buf c
        | c when c < ' ' -> Printf.bprintf buf "\\u%04x" (Char.code c)
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let int = string_of_int
let num ~dp v = Printf.sprintf "%.*f" dp v
let bool = string_of_bool
let raw s = s
let arr items = "[" ^ String.concat "," items ^ "]"

let obj fields =
  let field (k, v) = str k ^ ":" ^ v in
  "{" ^ String.concat "," (List.map field fields) ^ "}"

let summary ~dp stats (s : Marlin_analysis.Stats.summary) =
  let stat = function
    | `Mean -> ("mean", s.mean) | `P50 -> ("p50", s.p50)
    | `P95 -> ("p95", s.p95) | `P99 -> ("p99", s.p99)
    | `P999 -> ("p999", s.p999) | `Min -> ("min", s.min) | `Max -> ("max", s.max)
  in
  let field k = let name, v = stat k in (name, num ~dp v) in
  obj (("count", int s.count) :: List.map field stats)
