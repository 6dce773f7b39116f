(** The cross-module call graph the interprocedural rules run on.

    One node per structure-level value binding (functor bodies included),
    and one ["(include)"] node per [include M] or [include F (...)] whose
    single reference is the included module's path. Intra-unit references
    resolve exactly through Ident stamps; cross-unit edges connect by
    normalized dotted path — dune wrapper prefixes and [Stdlib] stripped,
    so ["Marlin_core__Auth.quorum"] and ["Auth.quorum"] meet. A module
    bound to a functor application, at top level or by [let module],
    reads as the functor: [Cl.run] under [module Cl = Cluster.Make (P)]
    is ["Cluster.Make.run"].

    Each body walk also tracks per-replica iteration depth and records
    send-class sites ([Consensus_intf.action] constructors,
    [Netsim.send]/[broadcast], [Auth] signing) with the depth they occur
    at, feeding the linearity rule's {!max_send_depth} fixpoint. *)

type send_kind =
  | Unicast  (** one message: [Send], [Netsim.send] *)
  | Broadcast  (** O(n) messages: [Broadcast], [Netsim.broadcast] *)
  | Auth_op  (** one signature/verification *)
  | Wide_payload  (** O(n) authenticators in one payload ([New_view_proof]) *)

type ref_site = { target : string; ref_loc : Location.t; ref_depth : int }

type send_site = {
  kind : send_kind;
  label : string;
  send_loc : Location.t;
  send_depth : int;
}

type node = {
  key : string;  (** e.g. ["Marlin_impl.Make.on_message"] *)
  rel : string;  (** source path, for rule scoping and anchors *)
  def_loc : Location.t;
  refs : ref_site list;
  sends : send_site list;
}

type t

val build : Cmt_loader.t -> t

val normalize_path : wrappers:string list -> Path.t -> string list
(** Flatten and normalize a compiler [Path]: demangle dune's ["__"]
    wrapping, drop a leading [Stdlib] or wrapper-library component. *)

val type_suffix : Types.type_expr -> (string * string) option
(** The last two (demangled) components of a [Tconstr] head, e.g.
    [Some ("Message", "payload")] — how rules recognize protocol types
    regardless of wrapping. *)

val find : t -> string -> node option

val order : t -> string list
(** every node key, in definition order — the deterministic iteration
    order for fixpoints and diagnostics *)

val weight : send_kind -> int
(** intrinsic O(n) cost: 1 for [Broadcast]/[Wide_payload], else 0 *)

val max_send_depth : t -> (string, int) Hashtbl.t
(** [msd(node)]: the maximum per-replica nesting a call into [node]
    reaches once its loops, sends and callees unfold, capped at 2. A
    send-class site is quadratic when its depth plus its weight (or a
    call's depth plus the callee's msd) reaches 2. *)
