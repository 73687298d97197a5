(** Shared core of RR-XO (exclusive ownership) and RR-SO (shared
    ownership) — the paper's Listing 3 generalized to [A] ownership arrays.

    An array of thread ids maps each hash bucket to the thread that most
    recently reserved a reference hashing there; [Revoke] is a single
    constant-time write of [-1]. The price is relaxation: a [Get] finds the
    reservation gone if {e any} other thread reserved a colliding reference
    (or, with one array, the same reference) in the meantime — a spurious
    drop that costs the victim a restart but never correctness. The
    reserved reference itself lives in a per-thread {!Tm.local} ([R_t]),
    which rolls back with the enclosing transaction, mirroring GCC TM's
    instrumentation of thread-local writes, but never enters the write set:
    only the owner reads it, so it needs no lock or version. [Reserve]
    still writes the shared ownership word, so it stays a writer. *)

type 'r t = {
  hash : 'r -> int;
  equal : 'r -> 'r -> bool;
  k : int;
  ways : int;
  buckets : int;
  own : int Tm.tvar array array;  (** [ways][buckets] thread ids; -1 empty *)
  rt : 'r option Tm.local array array;  (** [threads][K] *)
}

let create_t ~ways ~config ~hash ~equal =
  Rr_config.validate config;
  if ways < 1 then invalid_arg "Rr_own: ways < 1";
  let k = config.Rr_config.slots_per_thread in
  {
    hash;
    equal;
    k;
    ways;
    buckets = config.Rr_config.buckets;
    own =
      Array.init ways (fun _ ->
          Array.init config.Rr_config.buckets (fun _ -> Tm.tvar (-1)));
    rt =
      Array.init Tm.Thread.max_threads (fun _ ->
          Array.init k (fun _ -> Tm.local None));
  }

let register _t _txn = ()
let index t r = (t.hash r land max_int) mod t.buckets
let way_of t txn = Tm.thread_id txn mod t.ways
let slots t txn = t.rt.(Tm.thread_id txn)

let find_slot t txn cells pred =
  let rec go i =
    if i >= t.k then None
    else
      let c = cells.(i) in
      if pred (Tm.get_local txn c) then Some c else go (i + 1)
  in
  go 0

let holding t txn cells r =
  find_slot t txn cells (function Some r' -> t.equal r' r | None -> false)

let reserve t txn r =
  let cells = slots t txn in
  let publish () =
    (* A blind write: Reserve never reads OWN (Listing 3), so two threads
       reserving colliding references conflict only at commit. *)
    Tm.write txn t.own.(way_of t txn).(index t r) (Tm.thread_id txn)
  in
  match holding t txn cells r with
  | Some _ -> publish ()
  | None -> (
      match find_slot t txn cells (fun v -> v = None) with
      | None -> invalid_arg "Rr_own.reserve: reservation set full"
      | Some c ->
          Tm.set_local txn c (Some r);
          publish ())

let release t txn r =
  let cells = slots t txn in
  match holding t txn cells r with
  | Some c -> Tm.set_local txn c None
  | None -> ()

let release_all t txn =
  Array.iter
    (fun c -> if Tm.get_local txn c <> None then Tm.set_local txn c None)
    (slots t txn)

let get t txn r =
  let cells = slots t txn in
  match holding t txn cells r with
  | None -> None
  | Some _ ->
      if Tm.read txn t.own.(way_of t txn).(index t r) = Tm.thread_id txn then
        Some r
      else None

let revoke t txn r =
  let i = index t r in
  for way = 0 to t.ways - 1 do
    Dst.point Dst.Rr_revoke_step;
    Tm.write txn t.own.(way).(i) (-1)
  done
