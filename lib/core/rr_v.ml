(** RR-V: versioned reservations (paper Listing 4).

    An array of counters — functioning like STM ownership records — replaces
    the thread-id array of RR-XO. [Reserve] records the counter for the
    reference's bucket alongside the reference; [Get] re-reads the counter
    and succeeds only if unchanged; [Revoke] increments it. Any number of
    threads can reserve the same reference simultaneously, [Reserve] writes
    no shared memory, and [Revoke] is still O(1) (one read-modify-write). A
    spurious drop occurs only when a {e revocation} of a hash-colliding
    reference intervenes.

    The per-thread pairs [(R_t, V_t)] live in {!Tm.local} cells, so
    "writes no shared memory" holds in the TM's cost model too: a window
    whose only writes are its own reservations commits read-only, with no
    lock, clock advance or commit validation. This is safe because only
    the owner ever reads its slots ([Revoke] never does), and the
    reserving read of the bucket counter is validated at [rv] like any
    other read: a revocation that commits after that snapshot bumps the
    counter, and the owner's next [Get] sees the mismatch. *)

type 'r t = {
  hash : 'r -> int;
  equal : 'r -> 'r -> bool;
  k : int;
  buckets : int;
  v : int Tm.tvar array;
  rt : ('r * int) option Tm.local array array;  (** [threads][K]: (ref, V_t) *)
}

let name = "RR-V"
let strict = false

let create ?(config = Rr_config.default) ~hash ~equal () =
  Rr_config.validate config;
  let k = config.Rr_config.slots_per_thread in
  {
    hash;
    equal;
    k;
    buckets = config.Rr_config.buckets;
    v = Array.init config.Rr_config.buckets (fun _ -> Tm.tvar 0);
    rt =
      Array.init Tm.Thread.max_threads (fun _ ->
          Array.init k (fun _ -> Tm.local None));
  }

let register _t _txn = ()
let index t r = (t.hash r land max_int) mod t.buckets
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
  find_slot t txn cells (function
    | Some (r', _) -> t.equal r' r
    | None -> false)

let reserve t txn r =
  let cells = slots t txn in
  let vt = Tm.read txn t.v.(index t r) in
  match holding t txn cells r with
  | Some c -> Tm.set_local txn c (Some (r, vt))
  | None -> (
      match find_slot t txn cells (fun v -> v = None) with
      | None -> invalid_arg "Rr_v.reserve: reservation set full"
      | Some c -> Tm.set_local txn c (Some (r, vt)))

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
  let rec go i =
    if i >= t.k then None
    else
      match Tm.get_local txn cells.(i) with
      | Some (r', vt) when t.equal r' r ->
          if Tm.read txn t.v.(index t r) = vt then Some r else None
      | Some _ | None -> go (i + 1)
  in
  go 0

let revoke t txn r =
  let cell = t.v.(index t r) in
  Tm.write txn cell (Tm.read txn cell + 1)
