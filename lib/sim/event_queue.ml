(* A binary min-heap ordered by (time, seq), in three parallel arrays: once
   they have grown, push and pop allocate nothing (times sit unboxed, sifts
   move a hole, and no helper takes a float argument, which would be boxed).
   Every push takes a fresh seq, so (time, seq) is a total order and the
   pop sequence is exactly the sorted one, whatever the heap's shape. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
  mutable peak : int;
}

(* Fills every slot at or past [size]: an immediate, so no popped value
   stays reachable from its old slot. [grow] builds [values] from it, so
   that array is never a flat float array, whatever ['a] is. *)
let vacant () : 'a = Obj.magic ()

let create () =
  { times = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0; peak = 0 }

let grow t =
  let cap = Int.max 16 (2 * Array.length t.times) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.values <- extend t.values (vacant ())

(* Does slot [i] sort before slot [j]? *)
let[@inline] lt t i j =
  t.times.(i) < t.times.(j) || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.values.(dst) <- t.values.(src)

let push t ~time v =
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* sift up: walk the hole from the new leaf towards the root; the new
     seq is the largest, so it loses every tie on time *)
  let i = ref t.size and p = ref ((t.size - 1) / 2) in
  while !i > 0 && time < t.times.(!p) do
    move t ~src:!p ~dst:!i;
    i := !p;
    p := (!p - 1) / 2
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.values.(!i) <- v;
  t.size <- t.size + 1;
  if t.size > t.peak then t.peak <- t.size

let next_time t = if t.size = 0 then infinity else t.times.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let top = t.values.(0) and n = t.size - 1 in
  (* sift down: re-seat the last entry, from the root, in a heap of n *)
  let time = t.times.(n) and seq = t.seqs.(n) and v = t.values.(n) in
  t.values.(n) <- vacant ();
  t.size <- n;
  let i = ref 0 and c = ref 1 in
  while
    if !c + 1 < n && lt t (!c + 1) !c then incr c;
    !c < n && (t.times.(!c) < time || (t.times.(!c) = time && t.seqs.(!c) < seq))
  do
    move t ~src:!c ~dst:!i;
    i := !c;
    c := (2 * !c) + 1
  done;
  if n > 0 then begin
    t.times.(!i) <- time;
    t.seqs.(!i) <- seq;
    t.values.(!i) <- v
  end;
  top

let pop t =
  if t.size = 0 then None
  else
    let time = t.times.(0) in
    Some (time, pop_min t)

let peek_time t = if t.size = 0 then None else Some t.times.(0)
let length t = t.size
let is_empty t = t.size = 0
let max_length t = t.peak
