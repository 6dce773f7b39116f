(* A replicated bank on Marlin.

     dune exec examples/kv_bank.exe

   Each replica executes committed transfer operations against its own
   in-memory account table: the full state-machine-replication stack.
   Clients encode transfers, Marlin orders them, and every replica applies
   them deterministically. At the end the chains must agree and all four
   replicas must hold identical balances, or the example exits 1. *)

open Marlin_types
module P = Marlin_runtime.Registry.Marlin
module H = Test_support.Harness.Make (P)

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
  Option.value ~default:0 (Hashtbl.find_opt store account)

let accounts = [ "alice"; "bob"; "carol" ]

let same_balances a b =
  List.for_all (fun account -> balance a account = balance b account) accounts

let apply_transfer store body =
  match decode_transfer body with
  | None -> ()
  | Some (src, dst, amount) ->
      let from_balance = balance store src in
      (* the deterministic rule every replica follows: reject overdrafts *)
      if from_balance >= amount then begin
        Hashtbl.replace store src (from_balance - amount);
        Hashtbl.replace store dst (balance store dst + amount)
      end

(* --- wire the app to the consensus layer --- *)

let () =
  let stores = Array.init 4 (fun _ -> Hashtbl.create 8) in

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
  Array.iter (fun s -> Hashtbl.replace s "alice" 1000) stores;
  Array.iter (fun s -> Hashtbl.replace s "bob" 250) stores;

  List.iter submit
    [
      encode_transfer ~src:"alice" ~dst:"bob" ~amount:300;
      encode_transfer ~src:"bob" ~dst:"carol" ~amount:500;
      encode_transfer ~src:"bob" ~dst:"carol" ~amount:550;  (* overdraft! *)
      encode_transfer ~src:"alice" ~dst:"carol" ~amount:700;
      encode_transfer ~src:"carol" ~dst:"alice" ~amount:100;
    ];

  (* Execute each replica's committed chain against its own table. *)
  for id = 0 to 3 do
    List.iter
      (fun (op : Operation.t) -> apply_transfer stores.(id) op.Operation.body)
      (H.committed_ops t id)
  done;

  let safe = H.check_safety t in
  Printf.printf "Committed %d operations; chains agree: %b\n"
    (List.length (H.committed_ops t 0))
    safe;
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
    accounts;
  let replicas_match = Array.for_all (same_balances stores.(0)) stores in
  Printf.printf "\nAll replicas hold the same balances: %b\n" replicas_match;
  if not (safe && replicas_match) then exit 1
