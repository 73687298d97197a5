(** External (leaf-oriented) unbalanced BST with hand-over-hand
    transactions (Figure 7's "RR-*" and "TMHP" trees).

    Keys live only in leaves; internal nodes are routers with exactly two
    children whose key equals the smallest key of their right subtree
    (routing rule: [key < node.key] goes left). Insertion replaces a leaf
    with a router over the old and new leaves; removal splices the leaf and
    its router out by redirecting the grandparent edge to the sibling.
    Values never move, so removals revoke exactly two references (leaf and
    router) — no path revocation, which is why all six reservation schemes
    behave better here than in the internal tree. *)

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
  unit ->
  t
(** Supports [Rr_kind], [Htm] and [Tmhp] modes.
    @raise Invalid_argument for [Ref]. *)

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
val depth : t -> int
val check : t -> (unit, string) result
val pool_stats : t -> Mempool.Stats.t

val pool_live : t -> int
(** O(1) live-slot count ([Mempool.live]) for backlog sampling. *)

val hazard_metrics : t -> Reclaim.Hazard.metrics option
