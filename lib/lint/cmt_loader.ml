(* Loading dune's .cmt artifacts, the lint engine's only input.

   Dune drops one [.cmt] per compiled module under
   [_build/default/<dir>/.<lib>.objs/byte/<Lib>__<Module>.cmt]; each one
   carries the full Typedtree. We walk the given directories (including
   the leading-dot .objs dirs dune uses), read every .cmt with
   [Cmt_format.read_cmt], and keep the implementation units.

   Two quirks matter:

   - [cmt_builddir] records the build root of the machine that compiled
     the unit and is stale under sandboxed builds, so source files and
     the relative entries of [cmt_loadpath] are resolved against the
     caller's [source_root] instead.

   - module names are mangled by dune's wrapping ([Marlin_core__Auth]);
     we normalize to the user-visible name ([Auth]) and remember every
     wrapper prefix seen so the call graph can normalize referenced
     paths the same way.

   A unit with an .mli also has a [.cmti] beside its [.cmt]; its typed
   signature is read too, for the rules about what a unit exports. *)

type interface = {
  mli_rel : string;
  mli_source : string;
  signature : Typedtree.signature;
}

type unit_info = {
  modname : string;
  rel : string;
  source : string;
  intf : interface option;
  load_path : string list;
  structure : Typedtree.structure;
}

type load_error = { cmt_path : string; message : string }

type t = {
  units : unit_info list;
  wrappers : string list;
  errors : load_error list;
}

let is_cmt path = Filename.check_suffix path ".cmt"

(* Dot-directories are NOT skipped: dune's .objs dirs are exactly where
   the artifacts live. *)
let rec walk acc path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path
    |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left (fun acc entry -> walk acc (Filename.concat path entry)) acc
  else if Sys.file_exists path && is_cmt path then path :: acc
  else acc

(* "Marlin_core__Marlin_impl" -> ("Marlin_core", "Marlin_impl"); an
   unwrapped "Foo" has no wrapper. The LAST "__" splits, so "A__B__C"
   keeps the innermost name. *)
let split_wrapped modname =
  let rec from i =
    if i < 1 then (None, modname)
    else if modname.[i - 1] = '_' && modname.[i] = '_' then
      ( Some (String.sub modname 0 (i - 1)),
        String.sub modname (i + 1) (String.length modname - i - 1) )
    else from (i - 1)
  in
  from (String.length modname - 1)

let apply_map ~map rel =
  match map with
  | Some (from_prefix, to_prefix)
    when String.starts_with ~prefix:(from_prefix ^ "/") rel ->
      let n = String.length from_prefix in
      to_prefix ^ String.sub rel n (String.length rel - n)
  | Some _ | None -> rel

let read_source path =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
  else ""

let unreadable cmt_path exn =
  { cmt_path; message = "unreadable build artifact: " ^ Printexc.to_string exn }

let load ?map ?(source_root = ".") ~paths () =
  let cmts =
    List.concat_map (fun p -> walk [] p) paths |> List.sort String.compare
  in
  let units = ref [] in
  let wrappers = ref [] in
  (* a path that does not exist is an error, not an empty tree *)
  let errors =
    ref
      (List.rev_map
         (fun cmt_path -> { cmt_path; message = "no such file or directory" })
         (List.filter (fun p -> not (Sys.file_exists p)) paths))
  in
  let seen_rel : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | exception exn -> errors := unreadable cmt_path exn :: !errors
      | cmt -> (
          let wrapper, modname = split_wrapped cmt.Cmt_format.cmt_modname in
          (match wrapper with
          | Some w when not (List.mem w !wrappers) -> wrappers := w :: !wrappers
          | Some _ | None -> ());
          (* the wrapper alias module itself ("marlin_core.ml-gen") has no
             user source; Filename.check_suffix ".ml" rejects it *)
          match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
          | Cmt_format.Implementation structure, Some src
            when Filename.check_suffix src ".ml" ->
              let rel = apply_map ~map src in
              if not (Hashtbl.mem seen_rel rel) then begin
                Hashtbl.replace seen_rel rel ();
                let src_path = Filename.concat source_root src in
                let cmti_path = cmt_path ^ "i" in
                let intf =
                  if not (Sys.file_exists cmti_path) then None
                  else
                    match Cmt_format.read_cmt cmti_path with
                    | { cmt_annots = Interface signature; _ } ->
                        Some
                          {
                            mli_rel = rel ^ "i";
                            mli_source = read_source (src_path ^ "i");
                            signature;
                          }
                    | _ -> None
                    | exception exn ->
                        errors := unreadable cmti_path exn :: !errors;
                        None
                in
                let load_path =
                  List.map
                    (fun dir ->
                      if Filename.is_relative dir then
                        Filename.concat source_root dir
                      else dir)
                    cmt.Cmt_format.cmt_loadpath
                in
                units :=
                  {
                    modname;
                    rel;
                    source = read_source src_path;
                    intf;
                    load_path;
                    structure;
                  }
                  :: !units
              end
          | _ -> ()))
    cmts;
  {
    units = List.rev !units;
    wrappers = List.sort String.compare !wrappers;
    errors = List.rev !errors;
  }
