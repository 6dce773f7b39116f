(* A replicated bank on Marlin with durable state.

     dune exec examples/kv_bank.exe

   Each replica executes committed transfer operations against its own
   file-backed Log_store (the repository's LevelDB stand-in) — the full
   state-machine-replication stack: clients encode transfers, Marlin
   orders them, every replica applies them deterministically, and at the
   end all four on-disk databases hold identical balances. One replica is
   then "crash-recovered": its store is reopened from disk and must still
   match. *)

open Marlin_types
module P = Marlin_runtime.Registry.Marlin
module H = Test_support.Harness.Make (P)
module Log_store = Marlin_store.Log_store

(* --- the application: an account database with transfer operations --- *)

let encode_transfer ~src ~dst ~amount = Printf.sprintf "%s>%s:%d" src dst amount

let decode_transfer body =
  match String.split_on_char '>' body with
  | [ src; rest ] -> (
      match String.split_on_char ':' rest with
      | [ dst; amount ] -> Some (src, dst, int_of_string amount)
      | _ -> None)
  | _ -> None

let balance store account =
  match Log_store.get store ~key:account with
  | Some v -> int_of_string v
  | None -> 0

let apply_transfer store body =
  match decode_transfer body with
  | None -> ()
  | Some (src, dst, amount) ->
      let from_balance = balance store src in
      (* the deterministic rule every replica follows: reject overdrafts *)
      if from_balance >= amount then
        Log_store.write_batch store
          [
            (src, Some (string_of_int (from_balance - amount)));
            (dst, Some (string_of_int (balance store dst + amount)));
          ]

(* --- wire the app to the consensus layer --- *)

let () =
  let dir = Filename.temp_file "marlin-bank" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let stores =
    Array.init 4 (fun id ->
        Log_store.open_ ~path:(Filename.concat dir (Printf.sprintf "replica-%d.db" id)))
  in

  let t = H.create ~n:4 ~f:1 () in
  H.start t;

  (* Fund two accounts, then run a series of transfers — including one
     overdraft that every replica must reject identically. *)
  let seq = ref 0 in
  let submit body =
    incr seq;
    H.submit t (Operation.make ~client:1 ~seq:!seq ~body)
  in
  submit (encode_transfer ~src:"mint" ~dst:"alice" ~amount:0);
  (* seed balances directly (the mint prints money) *)
  Array.iter (fun s -> Log_store.put s ~key:"alice" ~value:"1000") stores;
  Array.iter (fun s -> Log_store.put s ~key:"bob" ~value:"250") stores;

  List.iter submit
    [
      encode_transfer ~src:"alice" ~dst:"bob" ~amount:300;
      encode_transfer ~src:"bob" ~dst:"carol" ~amount:500;
      encode_transfer ~src:"bob" ~dst:"carol" ~amount:550;  (* overdraft! *)
      encode_transfer ~src:"alice" ~dst:"carol" ~amount:700;
      encode_transfer ~src:"carol" ~dst:"alice" ~amount:100;
    ];

  (* Execute each replica's committed chain against its own database. *)
  for id = 0 to 3 do
    List.iter
      (fun (op : Operation.t) -> apply_transfer stores.(id) op.Operation.body)
      (H.committed_ops t id);
    Log_store.flush stores.(id)
  done;

  Printf.printf "Committed %d operations; chains agree: %b\n"
    (List.length (H.committed_ops t 0))
    (H.check_safety t);
  Printf.printf "\n%-8s" "account";
  for id = 0 to 3 do
    Printf.printf "  replica%d" id
  done;
  print_newline ();
  List.iter
    (fun account ->
      Printf.printf "%-8s" account;
      Array.iter (fun s -> Printf.printf "  %8d" (balance s account)) stores;
      print_newline ())
    [ "alice"; "bob"; "carol" ];

  (* Crash-recover replica 2: close and reopen its database from disk. *)
  let path = Log_store.path stores.(2) in
  Log_store.close stores.(2);
  let recovered = Log_store.open_ ~path in
  Printf.printf
    "\nReplica 2 recovered from disk: alice=%d bob=%d carol=%d (matches: %b)\n"
    (balance recovered "alice") (balance recovered "bob")
    (balance recovered "carol")
    (balance recovered "alice" = balance stores.(0) "alice"
    && balance recovered "bob" = balance stores.(0) "bob"
    && balance recovered "carol" = balance stores.(0) "carol");
  Log_store.close recovered;
  Array.iteri (fun id s -> if id <> 2 then Log_store.close s) stores
