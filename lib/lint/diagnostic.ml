type severity = Error | Warning

let severity_label = function Error -> "error" | Warning -> "warning"

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
}

let make ~rule ~severity ~file ~line ~col message =
  { rule; severity; file; line; col; message }

let order a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let pp fmt d =
  Format.fprintf fmt "%s:%d:%d: [%s] %s: %s" d.file d.line d.col d.rule
    (severity_label d.severity) d.message

(* Minimal JSON string escaping: the repo's Json_lite reader round-trips
   exactly this subset. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* GitHub Actions workflow-command escaping: data escapes %, CR, LF;
   property values additionally escape ':' and ','. *)
let github_escape ~property s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string b "%25"
      | '\r' -> Buffer.add_string b "%0D"
      | '\n' -> Buffer.add_string b "%0A"
      | ':' when property -> Buffer.add_string b "%3A"
      | ',' when property -> Buffer.add_string b "%2C"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_github d =
  Printf.sprintf "::%s file=%s,line=%d,col=%d,title=%s::%s"
    (severity_label d.severity)
    (github_escape ~property:true d.file)
    d.line d.col
    (github_escape ~property:true d.rule)
    (github_escape ~property:false d.message)

let to_json d =
  Printf.sprintf
    {|{"rule":"%s","severity":"%s","file":"%s","line":%d,"col":%d,"message":"%s"}|}
    (json_escape d.rule)
    (severity_label d.severity)
    (json_escape d.file) d.line d.col (json_escape d.message)
