(* A binary min-heap ordered by (time, seq) over a slab of values. Each
   value sits in [values.(slot)] from push to pop and never moves; the
   heap sifts only the unboxed triple (time, seq, slot), with seq and
   slot packed into one int key, [seq lsl slot_bits lor slot]. Seqs are
   unique, so keys order exactly as seqs do, and a sift level moves one
   float and one int and writes no pointer, so it pays no write barrier.
   Past the heap, [keys.(size) .. keys.(cap - 1)] hold the free slots as
   plain slot numbers: a push takes [keys.(size)] and a pop gives its slot
   back at the new [size], so the slab needs no array of its own.

   Once the arrays have grown, push and pop allocate nothing (times sit
   unboxed, sifts move a hole, and no helper takes a float argument,
   which would be boxed). Every push takes a fresh seq, so (time, seq) is
   a total order and the pop sequence is exactly the sorted one, whatever
   the heap's shape. *)

type 'a t = {
  mutable times : float array;
  mutable keys : int array;
  mutable values : 'a array; (* the slab, indexed by slot *)
  mutable size : int;
  mutable next_seq : int;
  mutable peak : int;
}

(* 2^24 slots and 2^38 seqs: a key stays a non-negative int *)
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let max_seq = max_int lsr slot_bits

(* Fills every free slab slot: an immediate, so no popped value stays
   reachable from its old slot. [grow] builds [values] from it, so that
   array is never a flat float array, whatever ['a] is. *)
let vacant () : 'a = Obj.magic ()

let create () =
  { times = [||]; keys = [||]; values = [||]; size = 0; next_seq = 0; peak = 0 }

(* Called only when full, so every old slot is in the heap and the new
   slots [old cap, cap) are the free ones. *)
let grow t =
  let old = Array.length t.times in
  let cap = Int.max 16 (2 * old) in
  if cap > slot_mask + 1 then failwith "Event_queue.push: more than 2^24 events queued";
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.times <- extend t.times 0.;
  t.values <- extend t.values (vacant ());
  let keys = Array.init cap Fun.id in
  Array.blit t.keys 0 keys 0 old;
  t.keys <- keys

(* Does heap position [i] sort before position [j]? *)
let[@inline] lt t i j =
  t.times.(i) < t.times.(j) || (t.times.(i) = t.times.(j) && t.keys.(i) < t.keys.(j))

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.keys.(dst) <- t.keys.(src)

let push t ~time v =
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  if seq > max_seq then failwith "Event_queue.push: 2^38 pushes used up";
  t.next_seq <- seq + 1;
  let slot = t.keys.(t.size) in
  t.values.(slot) <- v;
  (* sift up: walk the hole from the new leaf towards the root; the new
     seq is the largest, so it loses every tie on time *)
  let i = ref t.size and p = ref ((t.size - 1) / 2) in
  while !i > 0 && time < t.times.(!p) do
    move t ~src:!p ~dst:!i;
    i := !p;
    p := (!p - 1) / 2
  done;
  t.times.(!i) <- time;
  t.keys.(!i) <- (seq lsl slot_bits) lor slot;
  t.size <- t.size + 1;
  if t.size > t.peak then t.peak <- t.size

let next_time t = if t.size = 0 then infinity else t.times.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let top = t.keys.(0) land slot_mask and n = t.size - 1 in
  let v = t.values.(top) in
  t.values.(top) <- vacant ();
  (* sift down: re-seat the last entry, from the root, in a heap of n;
     the top's slot becomes the free slot at position n *)
  let time = t.times.(n) and key = t.keys.(n) in
  t.keys.(n) <- top;
  t.size <- n;
  let i = ref 0 and c = ref 1 in
  while
    if !c + 1 < n && lt t (!c + 1) !c then incr c;
    !c < n && (t.times.(!c) < time || (t.times.(!c) = time && t.keys.(!c) < key))
  do
    move t ~src:!c ~dst:!i;
    i := !c;
    c := (2 * !c) + 1
  done;
  if n > 0 then begin
    t.times.(!i) <- time;
    t.keys.(!i) <- key
  end;
  v

let pop t =
  if t.size = 0 then None
  else
    let time = t.times.(0) in
    Some (time, pop_min t)

let peek_time t = if t.size = 0 then None else Some t.times.(0)
let length t = t.size
let is_empty t = t.size = 0
let max_length t = t.peak
