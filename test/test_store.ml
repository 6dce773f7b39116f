(* Tests for the storage substrate: the in-memory store, the file-backed
   log store (recovery, torn tails, compaction) and the simulated disk cost
   model. *)

open Marlin_store
open Test_support.Hostile

let temp_path () = Filename.temp_file "marlin-store" ".log"

let with_store f =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ---------- mem store ---------- *)

let test_mem_basics () =
  let s = Mem_store.create () in
  Mem_store.put s ~key:"a" ~value:"1";
  Mem_store.put s ~key:"b" ~value:"2";
  Alcotest.(check (option string)) "get a" (Some "1") (Mem_store.get s ~key:"a");
  Mem_store.put s ~key:"a" ~value:"updated";
  Alcotest.(check (option string)) "overwrite" (Some "updated") (Mem_store.get s ~key:"a");
  Mem_store.delete s ~key:"a";
  Alcotest.(check (option string)) "deleted" None (Mem_store.get s ~key:"a");
  Alcotest.(check int) "count" 1 (Mem_store.entry_count s);
  Mem_store.write_batch s [ ("x", Some "1"); ("b", None); ("y", Some "2") ];
  Alcotest.(check int) "batch applied" 2 (Mem_store.entry_count s)

(* ---------- log store ---------- *)

let test_log_basics () =
  with_store (fun path ->
      let s = Log_store.open_ ~path in
      Log_store.put s ~key:"alpha" ~value:"1";
      Log_store.put s ~key:"beta" ~value:"2";
      Log_store.put s ~key:"alpha" ~value:"3";
      Log_store.delete s ~key:"beta";
      Alcotest.(check (option string)) "latest wins" (Some "3")
        (Log_store.get s ~key:"alpha");
      Alcotest.(check (option string)) "deleted" None (Log_store.get s ~key:"beta");
      Alcotest.(check int) "one live entry" 1 (Log_store.entry_count s);
      Alcotest.(check bool) "dead bytes accumulated" true (Log_store.dead_bytes s > 0);
      Log_store.close s)

let test_log_recovery () =
  with_store (fun path ->
      let s = Log_store.open_ ~path in
      for i = 0 to 99 do
        Log_store.put s ~key:(Printf.sprintf "k%03d" i) ~value:(Printf.sprintf "v%d" i)
      done;
      Log_store.delete s ~key:"k050";
      Log_store.flush s;
      Log_store.close s;
      let s = Log_store.open_ ~path in
      Alcotest.(check int) "recovered entries" 99 (Log_store.entry_count s);
      Alcotest.(check (option string)) "value intact" (Some "v7")
        (Log_store.get s ~key:"k007");
      Alcotest.(check (option string)) "delete replayed" None
        (Log_store.get s ~key:"k050");
      (* writes continue to work after recovery *)
      Log_store.put s ~key:"post" ~value:"recovery";
      Log_store.flush s;
      Log_store.close s;
      let s = Log_store.open_ ~path in
      Alcotest.(check (option string)) "post-recovery write persisted"
        (Some "recovery") (Log_store.get s ~key:"post");
      Log_store.close s)

let test_log_torn_tail () =
  with_store (fun path ->
      let s = Log_store.open_ ~path in
      Log_store.put s ~key:"good" ~value:"data";
      Log_store.flush s;
      Log_store.close s;
      (* Simulate a crash mid-append: garbage at the tail. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "\x42\x42\x42torn-record-without-valid-header";
      close_out oc;
      let s = Log_store.open_ ~path in
      Alcotest.(check (option string)) "good record survives" (Some "data")
        (Log_store.get s ~key:"good");
      Alcotest.(check int) "torn tail dropped" 1 (Log_store.entry_count s);
      (* The tail was truncated; new appends land on a clean boundary. *)
      Log_store.put s ~key:"after" ~value:"torn";
      Log_store.flush s;
      Log_store.close s;
      let s = Log_store.open_ ~path in
      Alcotest.(check (option string)) "append after truncation" (Some "torn")
        (Log_store.get s ~key:"after");
      Log_store.close s)

let test_log_compaction () =
  with_store (fun path ->
      let s = Log_store.open_ ~path in
      for round = 0 to 9 do
        for i = 0 to 49 do
          Log_store.put s ~key:(Printf.sprintf "k%d" i)
            ~value:(Printf.sprintf "round-%d" round)
        done
      done;
      let dead_before = Log_store.dead_bytes s in
      Alcotest.(check bool) "garbage accumulated" true (dead_before > 0);
      Log_store.compact s;
      Alcotest.(check int) "no dead bytes after compaction" 0 (Log_store.dead_bytes s);
      Alcotest.(check int) "entries preserved" 50 (Log_store.entry_count s);
      Alcotest.(check (option string)) "latest values preserved" (Some "round-9")
        (Log_store.get s ~key:"k13");
      (* Still durable after compaction. *)
      Log_store.close s;
      let s = Log_store.open_ ~path in
      Alcotest.(check int) "reopen after compact" 50 (Log_store.entry_count s);
      Log_store.close s)

let test_log_maybe_compact () =
  with_store (fun path ->
      let s = Log_store.open_ ~path in
      Alcotest.(check bool) "small log does not compact" false
        (Log_store.maybe_compact s);
      let big = String.make 4096 'v' in
      for round = 0 to 40 do
        ignore round;
        for i = 0 to 9 do
          Log_store.put s ~key:(Printf.sprintf "k%d" i) ~value:big
        done
      done;
      Alcotest.(check bool) "garbage-heavy log compacts" true
        (Log_store.maybe_compact s);
      Alcotest.(check int) "entries preserved" 10 (Log_store.entry_count s);
      Log_store.close s)

(* Random workloads: the log store must agree with the in-memory model. *)
let qcheck_log_vs_mem =
  let open QCheck in
  let op_gen =
    Gen.(
      oneof
        [
          map2 (fun k v -> `Put (Printf.sprintf "k%d" k, v)) (0 -- 20)
            (string_size ~gen:printable (0 -- 30));
          map (fun k -> `Delete (Printf.sprintf "k%d" k)) (0 -- 20);
        ])
  in
  Test.make ~count:30 ~name:"log store agrees with mem store on random workloads"
    (make Gen.(list_size (0 -- 200) op_gen))
    (fun ops ->
      with_store (fun path ->
          let log = Log_store.open_ ~path in
          let mem = Mem_store.create () in
          List.iter
            (function
              | `Put (key, value) ->
                  Log_store.put log ~key ~value;
                  Mem_store.put mem ~key ~value
              | `Delete key ->
                  Log_store.delete log ~key;
                  Mem_store.delete mem ~key)
            ops;
          Log_store.flush log;
          Log_store.close log;
          (* compare after a reopen so recovery is exercised too *)
          let log = Log_store.open_ ~path in
          let same = ref (Log_store.entry_count log = Mem_store.entry_count mem) in
          Mem_store.iter mem (fun ~key ~value ->
              if Log_store.get log ~key <> Some value then same := false);
          Log_store.close log;
          !same))

(* ---------- sim disk ---------- *)

let test_sim_disk_costs () =
  let config =
    {
      Sim_disk.write_bandwidth = 1e6;
      write_overhead = 1e-4;
      checkpoint_interval = 10;
      checkpoint_cost = 0.5;
    }
  in
  let d = Sim_disk.create config in
  let costs = List.init 20 (fun _ -> Sim_disk.commit_cost d ~bytes:1000) in
  Alcotest.(check int) "blocks counted" 20 (Sim_disk.blocks_written d);
  Alcotest.(check int) "two checkpoints at interval 10" 2 (Sim_disk.checkpoints_run d);
  let base = 1e-4 +. (1000. /. 1e6) in
  List.iteri
    (fun i c ->
      if (i + 1) mod 10 = 0 then
        Alcotest.(check (float 1e-9)) "checkpoint block pays the pause" (base +. 0.5) c
      else Alcotest.(check (float 1e-9)) "ordinary block pays base" base c)
    costs

let test_sim_disk_default () =
  let d = Sim_disk.create Sim_disk.default_config in
  let c = Sim_disk.commit_cost d ~bytes:60_000 in
  Alcotest.(check bool) "cost positive and sub-millisecond" true
    (c > 0. && c < 1e-3)

let test_sim_disk_rejects_config () =
  let c = Sim_disk.default_config in
  List.iter
    (fun (field, config) ->
      Alcotest.(check bool)
        (field ^ " rejected by name") true
        (rejected_naming field (fun () -> Sim_disk.create config)))
    [
      ("write_bandwidth", { c with write_bandwidth = 0. });
      ("checkpoint_interval", { c with checkpoint_interval = -1 });
    ]

let qcheck_sim_disk_config =
  let open QCheck in
  Test.make ~count:300 ~name:"Sim_disk.create rejects exactly the invalid configs"
    (make
       ~print:(fun ((write_bandwidth, write_overhead, checkpoint_cost), interval) ->
         Printf.sprintf
           "write_bandwidth=%g write_overhead=%g checkpoint_cost=%g \
            checkpoint_interval=%d"
           write_bandwidth write_overhead checkpoint_cost interval)
       Gen.(pair (triple edge_float edge_float edge_float) (int_range (-2) 3)))
    (fun ((write_bandwidth, write_overhead, checkpoint_cost), checkpoint_interval) ->
      accepts_iff
        (write_bandwidth > 0. && finite_nonneg write_overhead
        && finite_nonneg checkpoint_cost && checkpoint_interval >= 0)
        (fun () ->
          Sim_disk.create
            { Sim_disk.write_bandwidth; write_overhead; checkpoint_interval;
              checkpoint_cost }))

let suite =
  [
    ("mem store basics", `Quick, test_mem_basics);
    ("log store basics", `Quick, test_log_basics);
    ("log store recovery", `Quick, test_log_recovery);
    ("log store torn tail", `Quick, test_log_torn_tail);
    ("log store compaction", `Quick, test_log_compaction);
    ("log store maybe_compact", `Quick, test_log_maybe_compact);
    ("sim disk costs & checkpoints", `Quick, test_sim_disk_costs);
    ("sim disk defaults", `Quick, test_sim_disk_default);
    ("Sim_disk.create rejects invalid config, naming the field", `Quick,
     test_sim_disk_rejects_config);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_log_vs_mem; qcheck_sim_disk_config ]

let () = Alcotest.run "store" [ ("store", suite) ]
