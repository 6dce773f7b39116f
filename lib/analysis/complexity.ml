type protocol = Hotstuff | Fast_hotstuff | Jolteon | Wendy | Marlin

let all = [ Hotstuff; Fast_hotstuff; Jolteon; Wendy; Marlin ]

let name = function
  | Hotstuff -> "HotStuff"
  | Fast_hotstuff -> "Fast-HotStuff"
  | Jolteon -> "Jolteon"
  | Wendy -> "Wendy"
  | Marlin -> "Marlin"

type costs = {
  communication_bits : float;
  nonpairing_ops : float;
  pairing_ops : float;
  authenticators : float;
  phases : string;
}

(* Unit-constant instantiations of Table I's asymptotic entries. *)
let evaluate p ~n ~u ~c ~lambda =
  let n = float_of_int n in
  let log_u = Float.max 1. (Float.log2 (float_of_int (max 2 u))) in
  let log_c = Float.max 1. (Float.log2 (float_of_int (max 2 c))) in
  let lambda = float_of_int lambda in
  match p with
  | Hotstuff ->
      {
        communication_bits = (n *. lambda) +. (n *. log_u);
        nonpairing_ops = n *. n;
        pairing_ops = n;
        authenticators = n;
        phases = "3";
      }
  | Fast_hotstuff | Jolteon ->
      {
        communication_bits = (n *. n *. lambda) +. (n *. n *. log_u);
        nonpairing_ops = n *. n *. n;
        pairing_ops = n *. n;
        authenticators = n *. n;
        phases = "2";
      }
  | Wendy ->
      {
        communication_bits = (n *. lambda) +. (n *. n *. log_u);
        nonpairing_ops = n *. n *. log_c;
        pairing_ops = n;
        authenticators = n *. n;
        phases = "2 or 3";
      }
  | Marlin ->
      {
        communication_bits = (n *. lambda) +. (n *. log_u);
        nonpairing_ops = n *. n;
        pairing_ops = n;
        authenticators = n;
        phases = "2 or 3";
      }

let formulas = function
  | Hotstuff -> ("O(nL + n log u)", "O(n^2) non-pair or O(n) pair", "O(n)")
  | Fast_hotstuff | Jolteon ->
      ("O(n^2 L + n^2 log u)", "O(n^3) non-pair or O(n^2) pair", "O(n^2)")
  | Wendy ->
      ("O(nL + n^2 log u)", "O(n^2 log c) non-pair and O(n) pair", "O(n^2)")
  | Marlin -> ("O(nL + n log u)", "O(n^2) non-pair or O(n) pair", "O(n)")

let vc_phases p = (evaluate p ~n:4 ~u:2 ~c:2 ~lambda:256).phases

(* Happy-path voting phases per block: HotStuff's prepare/precommit/commit
   vs the two-phase protocols' prepare/commit. *)
let happy_phases = function
  | Hotstuff -> 3
  | Fast_hotstuff | Jolteon | Wendy | Marlin -> 2

(* Per committed block, with a stable leader: the proposal broadcast plus,
   per voting phase, n-1 votes to the leader and the certificate broadcast
   to the n-1 others — (2p + 1)(n - 1) messages. Each message carries one
   authenticator (a partial signature or an aggregated certificate). *)
let happy_messages p ~n = ((2 * happy_phases p) + 1) * (n - 1)
let happy_authenticators p ~n = happy_messages p ~n

(* CPU time of one view change's cryptography: the signature-verification
   work implied by the authenticator counts, under the given scheme. Wendy
   additionally pays O(n) pairings even in the conventional-signature
   instantiation — the paper's explanation for its slow view change. *)
let crypto_vc_seconds p ~n ~cost =
  let open Marlin_crypto.Cost_model in
  let nf = float_of_int n in
  let per_sig = partial_verify_cost cost in
  match p with
  | Hotstuff | Marlin -> nf *. nf *. per_sig /. nf (* n verifications per replica *)
  | Fast_hotstuff | Jolteon -> nf *. nf *. per_sig
  | Wendy ->
      (nf *. Float.max 1. (Float.log2 nf) *. per_sig) +. (nf *. pairing_cost)
