(* A waiver naming a typed rule that never fires in this file: the
   engines must report it as a stale-waiver error anchored at the
   directive's line. *)

(* lint: allow quorum-provenance -- fixture: nothing fires below *)
let quiet x = x + 1
