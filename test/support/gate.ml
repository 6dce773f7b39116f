(* The bench regression gate: a committed marlin-bench/1 baseline against
   the records of a fresh run of the same target.

   Every simulated quantity is a pure function of (code, seed), so the
   comparison is exact: both JSON trees are walked and every leaf must be
   equal, number for number and string for string. The one exception is
   any key named [wall_seconds], which holds host time and is skipped
   wherever it sits. A record or field present on only one side is a
   difference too. An intended change is made by re-blessing the
   baseline, so it shows up as a reviewed diff of the committed file. *)

module J = Marlin_obs.Json_lite

let schema = "marlin-bench/1"

(* One difference: the record's label, the dotted path inside its data
   ("" for the record as a whole) and both sides rendered, [None] for the
   side that lacks it. *)
type mismatch = {
  label : string;
  path : string;
  baseline : string option;
  fresh : string option;
}

type outcome = { records : int; leaves : int; mismatches : mismatch list }

(* The shortest decimal that reads back as the same float, so a change in
   the last printed digit of a baseline number is visible in the report. *)
let number x =
  let rec go p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || Float.equal (float_of_string s) x then s else go (p + 1)
  in
  go 15

let render = function
  | J.Null -> "null"
  | J.Bool b -> string_of_bool b
  | J.Num x -> number x
  | J.Str s -> Printf.sprintf "%S" s
  | J.Arr _ -> "[...]"
  | J.Obj _ -> "{...}"

let leaf_equal a b =
  match (a, b) with
  | J.Null, J.Null -> true
  | J.Bool x, J.Bool y -> Bool.equal x y
  | J.Num x, J.Num y -> Float.equal x y
  | J.Str x, J.Str y -> String.equal x y
  | _ -> false

(* Pair two association lists by key: the baseline's keys in its order,
   then the keys only the fresh side has. *)
let pair_up base fresh =
  List.map (fun (k, b) -> (k, Some b, List.assoc_opt k fresh)) base
  @ List.filter_map
      (fun (k, f) ->
        if List.mem_assoc k base then None else Some (k, None, Some f))
      fresh

let records_of ~target doc =
  Option.value ~default:[] (Option.bind (J.member "records" doc) J.to_list)
  |> List.filter_map (fun r ->
         match (J.string_at [ "target" ] r, J.string_at [ "label" ] r) with
         | Some t, Some label when String.equal t target ->
             Option.map (fun d -> (label, d)) (J.member "data" r)
         | _ -> None)

(* Compare the records of [target] in the baseline document [doc] with
   [fresh], the (label, data) records of a new run. [Error] when the
   document is not one this gate can read. *)
let check ~target doc fresh =
  let leaves = ref 0 and out = ref [] in
  let rec walk ~label path b f =
    let differ b f =
      out :=
        { label; path; baseline = Option.map render b; fresh = Option.map render f }
        :: !out
    in
    match (b, f) with
    | Some (J.Obj bs), Some (J.Obj fs) ->
        List.iter
          (fun (k, b, f) ->
            if not (String.equal k "wall_seconds") then
              walk ~label (if path = "" then k else path ^ "." ^ k) b f)
          (pair_up bs fs)
    | Some (J.Arr bs), Some (J.Arr fs) ->
        let index l = J.Obj (List.mapi (fun i v -> (string_of_int i, v)) l) in
        walk ~label path (Some (index bs)) (Some (index fs))
    | Some b, Some f ->
        incr leaves;
        if not (leaf_equal b f) then differ (Some b) (Some f)
    | _ -> differ b f
  in
  match J.string_at [ "schema" ] doc with
  | None -> Error "not a bench JSON document (no \"schema\" field)"
  | Some s when not (String.equal s schema) ->
      Error (Printf.sprintf "schema %S, this binary speaks %S" s schema)
  | Some _ -> (
      match records_of ~target doc with
      | [] -> Error (Printf.sprintf "no %s records to compare against" target)
      | baseline ->
          List.iter
            (fun (label, b, f) -> walk ~label "" b f)
            (pair_up baseline fresh);
          let mismatches = List.rev !out in
          Ok { records = List.length baseline; leaves = !leaves; mismatches })

let pp_mismatch ppf m =
  let side = Option.value ~default:"<absent>" in
  Format.fprintf ppf "%s%s: baseline %s, fresh %s%s" m.label
    (if m.path = "" then "" else " " ^ m.path)
    (side m.baseline) (side m.fresh)
    (if Option.is_none m.baseline || Option.is_none m.fresh then
       " (a record or field on one side only: re-bless the baseline)"
     else "")
