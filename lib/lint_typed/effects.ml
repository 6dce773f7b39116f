(* Transitive determinism-effect inference.

   The lattice is two-point (pure < impure); a node is impure iff it
   references an impurity root — ambient time, stdlib Random,
   console/file/system I/O — or (least fixpoint) any node already
   impure. Each verdict carries the root and the call chain that
   reaches it, so the diagnostic can say WHY a function two modules up
   is impure.

   Every stdlib [Random.*] reference is a root, [Random.State] included:
   the one sanctioned source is a Marlin_sim.Rng stream (SplitMix64)
   derived from the run's seed. Deliberately not roots: [Logs.*] (no-op
   unless a reporter is installed, which only bench/test harnesses do)
   and exceptions (deterministic). *)

type verdict = { root : string; why : string; via : string list }

let io_globals =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_char"; "prerr_bytes";
    "read_line"; "read_int"; "read_int_opt"; "read_float"; "read_float_opt";
    "open_in"; "open_in_bin"; "open_in_gen"; "open_out"; "open_out_bin";
    "open_out_gen"; "output_string"; "output_bytes"; "output_char";
    "output_byte"; "output_value"; "input_line"; "input_char"; "input_byte";
    "input_value"; "really_input"; "really_input_string"; "close_in";
    "close_out"; "flush"; "flush_all"; "stdout"; "stderr"; "stdin"; "exit";
    "at_exit";
  ]

let sys_impure =
  [
    "time"; "command"; "getenv"; "getenv_opt"; "argv"; "executable_name";
    "readdir"; "file_exists"; "is_directory"; "remove"; "rename"; "chdir";
    "getcwd";
  ]

let format_impure =
  [
    "printf"; "eprintf"; "std_formatter"; "err_formatter"; "print_string";
    "print_newline"; "print_flush"; "open_box"; "close_box";
  ]

(* [comps] is a normalized reference target split on '.'; a [Some reason]
   makes it an impurity root. *)
let root_of comps =
  match comps with
  | "Unix" :: _ -> Some "ambient time / system I/O (Unix)"
  | [ "Sys"; f ] when List.mem f sys_impure ->
      Some ("ambient system state (Sys." ^ f ^ ")")
  | "Random" :: _ ->
      Some
        ("stdlib randomness (" ^ String.concat "." comps
       ^ "); draw from a seeded Marlin_sim.Rng stream")
  | [ g ] when List.mem g io_globals -> Some ("console/file I/O (" ^ g ^ ")")
  | [ "Printf"; ("printf" | "eprintf") ] -> Some "console I/O (Printf)"
  | [ "Format"; f ] when List.mem f format_impure ->
      Some "console I/O (Format's implicit formatter)"
  | "Out_channel" :: _ -> Some "file I/O (Out_channel)"
  | "In_channel" :: _ -> Some "file I/O (In_channel)"
  | [ "Filename"; ("temp_file" | "open_temp_file" | "get_temp_dir_name") ] ->
      Some "filesystem state (Filename temp files)"
  | _ -> None

let infer graph =
  let verdicts : (string, verdict) Hashtbl.t = Hashtbl.create 256 in
  let keys = Callgraph.order graph in
  (* seed: direct root references *)
  List.iter
    (fun key ->
      match Callgraph.find graph key with
      | None -> ()
      | Some node ->
          let hit =
            List.find_map
              (fun (r : Callgraph.ref_site) ->
                match root_of (String.split_on_char '.' r.Callgraph.target) with
                | Some why -> Some (r.Callgraph.target, why)
                | None -> None)
              node.Callgraph.refs
          in
          (match hit with
          | Some (root, why) ->
              Hashtbl.replace verdicts key { root; why; via = [] }
          | None -> ()))
    keys;
  (* least fixpoint: impurity flows caller-ward; a verdict, once set, is
     frozen, so the witness chain is deterministic *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun key ->
        if not (Hashtbl.mem verdicts key) then
          match Callgraph.find graph key with
          | None -> ()
          | Some node -> (
              let hit =
                List.find_map
                  (fun (r : Callgraph.ref_site) ->
                    if r.Callgraph.target = key then None
                    else
                      Option.map
                        (fun v -> (r.Callgraph.target, v))
                        (Hashtbl.find_opt verdicts r.Callgraph.target))
                  node.Callgraph.refs
              in
              match hit with
              | Some (callee, v) ->
                  Hashtbl.replace verdicts key
                    { root = v.root; why = v.why; via = callee :: v.via };
                  changed := true
              | None -> ()))
      keys
  done;
  verdicts

let describe v =
  match v.via with
  | [] -> Printf.sprintf "references %s — %s" v.root v.why
  | chain ->
      Printf.sprintf "reaches %s (%s) via %s" v.root v.why
        (String.concat " -> " chain)
