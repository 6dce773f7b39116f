let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.
  | xs ->
      let m = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
        /. float_of_int (List.length xs - 1)
      in
      sqrt var

(* Nearest-rank over a sorted array; the shared kernel for the list and
   reservoir front ends. [p] outside [0, 100] clamps rather than indexing
   out of bounds; the empty array is the caller's to handle. *)
let rank_of ~n p =
  let p = Float.max 0. (Float.min 100. p) in
  int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 |> max 0 |> min (n - 1)

let percentile xs ~p =
  match xs with
  | [] -> 0.
  | [ x ] -> x
  | xs ->
      let sorted = List.sort Float.compare xs in
      List.nth sorted (rank_of ~n:(List.length sorted) p)

let median xs = percentile xs ~p:50.
let minimum = function [] -> 0. | xs -> List.fold_left Float.min infinity xs
let maximum = function [] -> 0. | xs -> List.fold_left Float.max neg_infinity xs

(* Wirth's [find]: partition [lo, hi] around the value at [k] until the
   window shrinks to [k]. Each pass leaves everything left of [i] <= the
   pivot and everything right of [j] >= it, with [j < i]. *)
let select (a : float array) ~len ~k =
  if not (0 <= k && k < len && len <= Array.length a) then
    invalid_arg "Stats.select: need 0 <= k < len <= Array.length a";
  let lo = ref 0 and hi = ref (len - 1) in
  while !lo < !hi do
    let pivot = a.(k) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while pivot < a.(!j) do decr j done;
      if !i <= !j then begin
        let x = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- x;
        incr i;
        decr j
      end
    done;
    if !j < k then lo := !i;
    if k < !i then hi := !j
  done

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  min : float;
  max : float;
}

let empty_summary =
  {
    count = 0;
    mean = 0.;
    p50 = 0.;
    p95 = 0.;
    p99 = 0.;
    p999 = 0.;
    min = 0.;
    max = 0.;
  }

(* One pass for the sum and extremes (in list order, as [mean], [minimum]
   and [maximum] fold), then one stable sort for every percentile. *)
let summarize = function
  | [] -> empty_summary
  | [ x ] ->
      { count = 1; mean = x; p50 = x; p95 = x; p99 = x; p999 = x; min = x; max = x }
  | xs ->
      let a = Array.of_list xs in
      let n = Array.length a in
      let sum = ref 0. and lo = ref infinity and hi = ref neg_infinity in
      for i = 0 to n - 1 do
        let x = a.(i) in
        sum := !sum +. x;
        lo := Float.min !lo x;
        hi := Float.max !hi x
      done;
      Array.stable_sort Float.compare a;
      {
        count = n;
        mean = !sum /. float_of_int n;
        p50 = a.(rank_of ~n 50.);
        p95 = a.(rank_of ~n 95.);
        p99 = a.(rank_of ~n 99.);
        p999 = a.(rank_of ~n 99.9);
        min = !lo;
        max = !hi;
      }

module Reservoir = struct
  type t = {
    capacity : int;
    samples : float array; (* unboxed float array: in-place, no per-add alloc *)
    mutable count : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
    mutable rng : int64; (* private SplitMix64 stream, deterministic *)
  }

  let create ?(capacity = 1024) () =
    if capacity <= 0 then invalid_arg "Stats.Reservoir.create: capacity <= 0";
    {
      capacity;
      samples = Array.make capacity 0.;
      count = 0;
      sum = 0.;
      min = infinity;
      max = neg_infinity;
      rng = 0x9e3779b97f4a7c15L;
    }

  (* SplitMix64 step: cheap, stateful, and identical on every run — the
     reservoir must not perturb (or be perturbed by) the simulation RNG. *)
  let next_int t ~bound =
    let z = Int64.add t.rng 0x9e3779b97f4a7c15L in
    t.rng <- z;
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94d049bb133111ebL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.rem (Int64.logand z Int64.max_int)
                    (Int64.of_int bound))

  let add t x =
    t.sum <- t.sum +. x;
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    if t.count < t.capacity then t.samples.(t.count) <- x
    else begin
      (* Algorithm R: replace a kept sample with probability capacity/count,
         keeping the retained set uniform over everything seen. *)
      let j = next_int t ~bound:(t.count + 1) in
      if j < t.capacity then t.samples.(j) <- x
    end;
    t.count <- t.count + 1

  let count t = t.count
  let kept t = min t.count t.capacity
  let is_empty t = t.count = 0
  let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

  let percentile t ~p =
    let n = kept t in
    if n = 0 then 0.
    else begin
      let sorted = Array.sub t.samples 0 n in
      Array.sort Float.compare sorted;
      sorted.(rank_of ~n p)
    end

  let summarize t =
    let n = kept t in
    if n = 0 then empty_summary
    else begin
      let sorted = Array.sub t.samples 0 n in
      Array.sort Float.compare sorted;
      {
        count = t.count;
        mean = mean t;
        p50 = sorted.(rank_of ~n 50.);
        p95 = sorted.(rank_of ~n 95.);
        p99 = sorted.(rank_of ~n 99.);
        p999 = sorted.(rank_of ~n 99.9);
        (* min/max are exact over the whole stream, not just the kept set *)
        min = t.min;
        max = t.max;
      }
    end

  let clear t =
    t.count <- 0;
    t.sum <- 0.;
    t.min <- infinity;
    t.max <- neg_infinity
end
