type scheme = Ecdsa_group | Bls_pairing

type t = {
  scheme : scheme;
  partial_sign : float;
  partial_verify : float;
  combine_fixed : float;
  combine_per_share : float;
  combined_verify_fixed : float;
  combined_verify_per_share : float;
  sig_size : int;
}

let us x = x *. 1e-6
let pairing_cost = us 600.

(* ECDSA-P256 on a ~2.3 GHz core: sign ~35us, verify ~95us (OpenSSL).
   "Combining" a group of signatures is concatenation; all verification cost
   is per-share. *)
let ecdsa_group =
  {
    scheme = Ecdsa_group;
    partial_sign = us 35.;
    partial_verify = us 95.;
    combine_fixed = us 1.;
    combine_per_share = us 0.5;
    combined_verify_fixed = 0.;
    combined_verify_per_share = us 95.;
    sig_size = 64;
  }

(* BLS12-381: share sign ~280us (one G1 exponentiation + hash-to-curve),
   share verify ~2 pairings, combine = Lagrange interpolation in G1
   (~150us/share), combined verify = 2 pairings. *)
let bls_pairing =
  {
    scheme = Bls_pairing;
    partial_sign = us 280.;
    partial_verify = 2. *. pairing_cost;
    combine_fixed = us 50.;
    combine_per_share = us 150.;
    combined_verify_fixed = 2. *. pairing_cost;
    combined_verify_per_share = 0.;
    sig_size = 48;
  }

let partial_sign_cost m = m.partial_sign
let partial_verify_cost m = m.partial_verify
let combine_cost m ~shares = m.combine_fixed +. (float_of_int shares *. m.combine_per_share)

let combined_verify_cost m ~shares =
  m.combined_verify_fixed +. (float_of_int shares *. m.combined_verify_per_share)

(* SHA-256 runs at roughly 400 MB/s on one core. *)
let hash_cost ~bytes = float_of_int bytes /. 4e8

let combined_size m ~n ~shares =
  match m.scheme with
  | Ecdsa_group -> shares * m.sig_size
  | Bls_pairing -> m.sig_size + ((n + 7) / 8)

