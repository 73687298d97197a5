(** A probabilistically balanced skiplist set with hand-over-hand
    transactions and revocable reservations — the paper's Section 6
    "balanced trees" claim, realized with the skiplist's probabilistic
    balance instead of rebalancing rotations.

    The traversal phase is windowed exactly like Listing 5: descend/advance
    through at most [W] nodes per transaction, reserving the node where the
    window pauses (the operation also remembers, thread-locally, at which
    level it paused). Along the way it records the rightmost node with a
    smaller key at every level — the predecessor hints. The update phase is
    one transaction that re-validates each hint before using it: a hint
    collected in an earlier window may have been removed (its [deleted]
    flag — written by removals in every mode — is read transactionally) or
    out-run by newer inserts (the transaction walks forward from the hint
    at its level). A deleted hint forces a fresh full descent inside the
    update transaction; both repairs preserve serializability because all
    reads happen in the update transaction's own validated snapshot.

    Removals revoke the node being unlinked, exactly as in the lists: a
    concurrent operation resuming from it restarts from the head, and the
    node's memory is reclaimed the moment the removal commits. *)

type t

val create :
  mode:Mode.kind ->
  ?window:int ->
  ?scatter:bool ->
  ?adaptive:bool ->
  ?middle:bool ->
  ?magazines:bool ->
  ?strategy:Mempool.strategy ->
  ?rr_config:Rr.Config.t ->
  ?hp_threshold:int ->
  ?max_attempts:int ->
  ?seed:int ->
  unit ->
  t
(** [seed] feeds the per-thread tower-height generators.
    @raise Invalid_argument for [Ref] mode. *)

val name : t -> string
val insert : t -> thread:int -> int -> bool
val remove : t -> thread:int -> int -> bool
val lookup : t -> thread:int -> int -> bool
val insert_s : t -> thread:int -> int -> bool * int
val remove_s : t -> thread:int -> int -> bool * int
val lookup_s : t -> thread:int -> int -> bool * int
val finalize_thread : t -> thread:int -> unit
val drain : t -> unit
val to_list : t -> int list
val size : t -> int

val levels_histogram : t -> int array
(** Count of nodes per tower height (quiescent); sanity-checks the
    geometric distribution. *)

val check : t -> (unit, string) result
(** Level-0 sortedness; every level-l list is a sorted sublist of level
    l-1; towers match [level]; no deleted/poisoned/freed node linked. *)

val pool_stats : t -> Mempool.Stats.t

val pool_live : t -> int
(** O(1) live-slot count ([Mempool.live]) for backlog sampling. *)

val hazard_metrics : t -> Reclaim.Hazard.metrics option
