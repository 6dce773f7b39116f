(* Linear probing over a power-of-two slot array. Slot [i] holds the key
   [(hi.(i), lo.(i))] when [marks.[i]] is not '\000'. A [Boxed] table
   keeps its values in [values] and marks occupied slots '\001'; an
   [In_marks] table keeps value [v] as the mark byte [v + 1] and has no
   value array. Removal shifts later members of the probe run back into
   the hole (Knuth's Algorithm R), so every run stays contiguous and an
   empty slot always ends a search. The slot-level calls let a caller
   probe once per key and then read, write, insert or remove at the
   slot that probe found. *)

type _ kind = In_marks : int kind | Boxed : 'a -> 'a kind

type 'a t = {
  kind : 'a kind;
  mutable shift : int; (* Sys.int_size - log2 capacity *)
  mutable mask : int; (* capacity - 1 *)
  mutable size : int;
  mutable hi : int array;
  mutable lo : int array;
  mutable marks : Bytes.t;
  mutable values : 'a array; (* [||] for In_marks *)
}

let empty = '\000'

let rec log2 c = if c <= 1 then 0 else 1 + log2 (c lsr 1)

(* Room for [n] keys at three-quarters load, at least 8 slots. *)
let capacity_for n =
  let n = Int.min n (1 lsl 40) in
  let rec go c = if c * 3 >= n * 4 then c else go (2 * c) in
  go 8

let make kind ~values cap =
  {
    kind;
    shift = Sys.int_size - log2 cap;
    mask = cap - 1;
    size = 0;
    hi = Array.make cap 0;
    lo = Array.make cap 0;
    marks = Bytes.make cap empty;
    values = values cap;
  }

let create ~dummy n =
  make (Boxed dummy) ~values:(fun cap -> Array.make cap dummy) (capacity_for n)

let create_bytes n = make In_marks ~values:(fun _ -> [||]) (capacity_for n)
let length t = t.size

(* Fibonacci hashing of the two halves, reading the product's top bits:
   one client's consecutive seqs land far apart, and neither half's low
   bits alone decide the slot. *)
let home t a b =
  (((a * 0x2545F4914F6CDD1) + b) * 0x9E3779B97F4A7C1) lsr t.shift

(* The key's slot, or [lnot i] (negative) for the empty slot [i] that
   ended the search, where the key would be inserted. *)
let rec index t a b i =
  if Bytes.get t.marks i = empty then lnot i
  else if Int.equal t.hi.(i) a && Int.equal t.lo.(i) b then i
  else index t a b ((i + 1) land t.mask)

let rec free_slot t i =
  if Bytes.get t.marks i = empty then i else free_slot t ((i + 1) land t.mask)

let value (type a) (t : a t) i : a =
  match t.kind with
  | In_marks -> Char.code (Bytes.get t.marks i) - 1
  | Boxed _ -> t.values.(i)

(* Occupy slot [i] with value [v]; the key halves are the caller's. *)
let occupy (type a) (t : a t) i (v : a) =
  match t.kind with
  | In_marks -> Bytes.set t.marks i (Char.unsafe_chr (v + 1))
  | Boxed _ ->
      Bytes.set t.marks i '\001';
      t.values.(i) <- v

(* Every exported call that stores a value checks it first; [fn] names
   that call in the error. *)
let check_value (type a) ~fn (t : a t) (v : a) =
  match t.kind with
  | In_marks ->
      if v < 0 || v > 254 then invalid_arg (fn ^ ": byte value outside [0, 254]")
  | Boxed _ -> ()

let clear (type a) (t : a t) i =
  Bytes.set t.marks i empty;
  match t.kind with In_marks -> () | Boxed dummy -> t.values.(i) <- dummy

let slot t a b = index t a b (home t a b)
let mem t a b = slot t a b >= 0

let find t a b =
  let i = slot t a b in
  if i < 0 then raise Not_found else value t i

let check_occupied ~fn t i =
  if Bytes.get t.marks i = empty then invalid_arg (fn ^ ": an empty slot")

let get t i =
  check_occupied ~fn:"Pair_tbl.get" t i;
  value t i

let set t i v =
  check_occupied ~fn:"Pair_tbl.set" t i;
  check_value ~fn:"Pair_tbl.set" t v;
  occupy t i v

let grow (type a) (t : a t) =
  let old = { t with size = t.size } (* a copy holding the old arrays *) in
  let cap = 2 * (t.mask + 1) in
  t.shift <- t.shift - 1;
  t.mask <- cap - 1;
  t.hi <- Array.make cap 0;
  t.lo <- Array.make cap 0;
  t.marks <- Bytes.make cap empty;
  (match t.kind with
  | In_marks -> ()
  | Boxed dummy -> t.values <- Array.make cap dummy);
  for i = 0 to old.mask do
    if Bytes.get old.marks i <> empty then begin
      let a = old.hi.(i) and b = old.lo.(i) in
      let j = free_slot t (home t a b) in
      t.hi.(j) <- a;
      t.lo.(j) <- b;
      occupy t j (value old i)
    end
  done

(* The hint is the empty slot that ended the key's search, which holds
   until the table grows; a growing insert searches the new arrays. *)
let insert_at ~fn t ~hint a b v =
  if hint >= 0 then invalid_arg (fn ^ ": the hint is an occupied slot");
  check_value ~fn t v;
  let i =
    if (t.size + 1) * 4 <= (t.mask + 1) * 3 then lnot hint
    else begin
      grow t;
      free_slot t (home t a b)
    end
  in
  occupy t i v;
  t.hi.(i) <- a;
  t.lo.(i) <- b;
  t.size <- t.size + 1

let insert t ~hint a b v = insert_at ~fn:"Pair_tbl.insert" t ~hint a b v

let replace t a b v =
  let i = slot t a b in
  if i >= 0 then begin
    check_value ~fn:"Pair_tbl.replace" t v;
    occupy t i v
  end
  else insert_at ~fn:"Pair_tbl.replace" t ~hint:i a b v

(* [hole] is empty and [j] walks the rest of its probe run. The entry at
   [j] may move into [hole] unless its home lies cyclically in
   (hole, j], where moving it would put it before its home. *)
let rec close_hole t hole j =
  let j = (j + 1) land t.mask in
  if Bytes.get t.marks j <> empty then begin
    let h = home t t.hi.(j) t.lo.(j) in
    let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
    if stays then close_hole t hole j
    else begin
      t.hi.(hole) <- t.hi.(j);
      t.lo.(hole) <- t.lo.(j);
      occupy t hole (value t j);
      clear t j;
      close_hole t j j
    end
  end

let unbind t i =
  clear t i;
  t.size <- t.size - 1;
  close_hole t i i

let remove_slot t i =
  check_occupied ~fn:"Pair_tbl.remove_slot" t i;
  unbind t i

let remove t a b =
  let i = slot t a b in
  if i >= 0 then unbind t i

let fold f t acc =
  let acc = ref acc in
  for i = 0 to t.mask do
    if Bytes.get t.marks i <> empty then acc := f t.hi.(i) t.lo.(i) (value t i) !acc
  done;
  !acc

let reset (type a) (t : a t) =
  Bytes.fill t.marks 0 (Bytes.length t.marks) empty;
  (match t.kind with
  | In_marks -> ()
  | Boxed dummy -> Array.fill t.values 0 (Array.length t.values) dummy);
  t.size <- 0
