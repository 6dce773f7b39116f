(* The lint engine: load the .cmt artifacts, build the call graph, run
   every rule over the units in its scope, honour the inline waivers
   (scanned from the units' sources), and produce the report. *)

(* The default clock pins every timing to zero, which keeps reports
   byte-identical across runs; the CLI's --time passes a real clock. *)
let null_clock () = 0.

let run ?(clock = null_clock) ?(warn = []) ?map ?source_root ~paths () =
  let t0 = clock () in
  let loader = Cmt_loader.load ?map ?source_root ~paths () in
  let graph = Callgraph.build loader in
  let load_seconds = clock () -. t0 in
  let timings = ref [] in
  let run_rule (rule : Rules_typed.t) =
    let t0 = clock () in
    let ctx =
      {
        Rules_typed.units =
          List.filter
            (fun (u : Cmt_loader.unit_info) -> rule.applies u.rel)
            loader.units;
        wrappers = loader.wrappers;
        graph;
      }
    in
    let found =
      List.filter_map
        (fun (f : Rules_typed.finding) ->
          if rule.applies f.rel then
            let p = f.loc.loc_start in
            Some
              (Diagnostic.make ~rule:rule.name ~severity:rule.severity
                 ~file:f.rel ~line:p.pos_lnum
                 ~col:(max 0 (p.pos_cnum - p.pos_bol))
                 f.message)
          else None)
        (rule.check ctx)
    in
    timings := (rule.name, clock () -. t0) :: !timings;
    found
  in
  let cmt_errors =
    List.map
      (fun (e : Cmt_loader.load_error) ->
        Diagnostic.make ~rule:"cmt-error" ~severity:Diagnostic.Error
          ~file:e.cmt_path ~line:1 ~col:0 e.message)
      loader.errors
  in
  let raw = cmt_errors @ List.concat_map run_rule Rules_typed.all in
  (* waivers sit in the .ml or, for findings about exports, the .mli *)
  let sources =
    List.concat_map
      (fun (u : Cmt_loader.unit_info) ->
        (u.rel, u.source)
        ::
        (match u.intf with
        | Some i -> [ (i.mli_rel, i.mli_source) ]
        | None -> []))
      loader.units
  in
  let source_of rel =
    Option.map snd (List.find_opt (fun (r, _) -> String.equal r rel) sources)
  in
  let kept, suppressed =
    Waivers.filter ~source_of ~files:(List.map fst sources) raw
  in
  let demote (d : Diagnostic.t) =
    if List.mem d.rule warn then { d with severity = Diagnostic.Warning } else d
  in
  {
    Report.files_scanned = List.length loader.units;
    diagnostics = Report.canonical (List.map demote kept);
    suppressed;
    rules = Rules_typed.all;
    timings = ("load", load_seconds) :: List.rev !timings;
  }
