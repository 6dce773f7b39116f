(** The protocol registry: every consensus implementation as a first-class
    [(module PROTOCOL)] value under its own [name], so harnesses (bench
    targets, tests, scripts) dispatch by string instead of duplicating
    functor plumbing.

    Names: ["marlin"], ["hotstuff"] (the basic one-block protocols),
    ["chained-marlin"], ["chained-hotstuff"] (pipelined), ["pbft"], and
    ["twophase-insecure"] (the paper's Figure 2 strawman, which livelocks
    — kept for the counterexample). *)

module Marlin : Marlin_core.Consensus_intf.PROTOCOL
(** Basic Marlin: two voting phases per block. *)

module Chained_marlin : Marlin_core.Consensus_intf.PROTOCOL
(** Pipelined Marlin: one round per block, commit on a two-chain. *)

module Hotstuff : Marlin_core.Consensus_intf.PROTOCOL
(** Basic HotStuff: three voting phases per block. *)

module Chained_hotstuff : Marlin_core.Consensus_intf.PROTOCOL
(** Pipelined HotStuff: one round per block, commit on a three-chain. *)

val find_exn : string -> Marlin_core.Consensus_intf.protocol
(** @raise Invalid_argument on an unknown name, listing the known ones. *)

val all : unit -> (string * Marlin_core.Consensus_intf.protocol) list
(** Every protocol, sorted by name. *)
