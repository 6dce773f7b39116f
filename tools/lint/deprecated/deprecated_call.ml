(* Fixture: must fail to compile. Legacy.old_send is deprecated, and the
   root dune env makes the deprecated alert an error. *)
module Legacy : sig
  val old_send : int -> unit
    [@@ocaml.deprecated "use Transport.send instead"]
end = struct
  let old_send _ = ()
end

let ping () = Legacy.old_send 3
