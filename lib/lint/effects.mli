(** Transitive determinism-effect inference over the {!Callgraph}.

    Two-point lattice (pure < impure). A node is impure iff it references
    an impurity root — ambient time ([Unix.*], [Sys.time]), the global
    Random state (not [Random.State.*]: a passed generator is the
    sanctioned source), or console/file/system I/O — or, by least
    fixpoint, any impure node. Verdicts carry the witness call chain. *)

type verdict = {
  root : string;  (** the root reference, e.g. ["Sys.time"] *)
  why : string;  (** human category, e.g. ["ambient system state (…)"] *)
  via : string list;  (** call chain from this node to the root's node *)
}

val infer : Callgraph.t -> (string, verdict) Hashtbl.t
(** Verdicts for every impure node, keyed by node key. Deterministic:
    nodes and references are visited in definition order and a verdict,
    once assigned, is frozen. *)

val describe : verdict -> string
(** ["references Sys.time — …"] or ["reaches … via a -> b"]. *)
