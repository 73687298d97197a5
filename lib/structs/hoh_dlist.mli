(** The paper's Section 4.2 doubly linked list.

    Traversal is identical to the singly linked list; nodes additionally
    maintain [prev] pointers (set transactionally, so insertion/removal read
    like sequential code). The substantive difference is removal: because a
    node's neighbours are reachable from the node itself, a [Remove] that
    finds its target can {e reserve it and commit}, then unlink and revoke
    in a separate, smaller transaction. If that second transaction finds
    the reservation gone:

    - under a {e strict} reservation implementation (or TMHP, whose
      validity check is exact), only a concurrent removal of the same node
      can have invalidated it, so the operation returns [false]
      immediately;
    - under a {e relaxed} implementation the invalidation may be spurious,
      so the operation must retry from the beginning — exactly the paper's
      prescription. *)

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
  ?split_unlink:bool ->
  unit ->
  t
(** [split_unlink] (default [true]) enables the separate unlink-and-revoke
    transaction; disabling it makes [remove] unlink inside the traversal's
    final transaction, as in the singly linked list — the ablation knob for
    the paper's claim that the split reduces conflicts. *)

val name : t -> string

val insert : t -> thread:int -> int -> bool
val remove : t -> thread:int -> int -> bool
val lookup : t -> thread:int -> int -> bool
val insert_s : t -> thread:int -> int -> bool * int

val remove_s : t -> thread:int -> int -> bool * int * int
(** [(result, earliest, stamp)]: normally [earliest = stamp] (the operation
    linearizes at its final commit), but a strict-mode fast-fail — the
    reservation was revoked between the reserving and unlinking
    transactions — linearizes anywhere in [(earliest, stamp]], immediately
    after the concurrent removal that revoked it (Sec. 4.2). *)

val lookup_s : t -> thread:int -> int -> bool * int

val finalize_thread : t -> thread:int -> unit
val drain : t -> unit
val to_list : t -> int list
val size : t -> int

val check : t -> (unit, string) result
(** Adds to the singly-linked invariants: [n.next.prev == n] and
    [n.prev.next == n] for every linked node. *)

val pool_stats : t -> Mempool.Stats.t

val pool_live : t -> int
(** O(1) live-slot count ([Mempool.live]) for backlog sampling. *)

val hazard_metrics : t -> Reclaim.Hazard.metrics option
