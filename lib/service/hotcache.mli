(** Hot-key read cache in front of the service router.

    A small direct-mapped per-shard table of [Get] replies, versioned by
    invalidation epochs: entries remember the shard's write epoch
    observed before their lookup transaction, writers bump their key's
    slot inside commit (gates still held), and a hit is served only
    while no write to its slot has bumped past the entry — so a hit is
    always a reply the shard could still give for that key at some stamp
    in the entry's lifetime, and cached histories stay serializable.
    Every hit runs the TxSan {!San.cache_hit} freshness check against the
    slot's published last-committed-write stamp (DESIGN.md, decision
    13). *)

type t

val create : ?capacity:int -> shards:int -> unit -> t
(** [capacity] (default 256, rounded up to a power of two) is the slot
    count of each shard's direct-mapped table. *)

val epoch : t -> shard:int -> int
(** The shard's current write epoch. Read it {e before} running the
    lookup transaction and pass it to {!note}. *)

val find : t -> shard:int -> thread:int -> int -> Harness.Store.reply option
(** Serve a [Get key] from cache if a valid entry exists. Counts a hit or
    a miss either way. *)

val note : t -> shard:int -> epoch0:int -> int -> Harness.Store.reply -> unit
(** Populate from a lookup reply ([Found]/[Absent] outcomes only;
    anything else is ignored). [epoch0] is the {!epoch} sample taken
    before the lookup ran; if a write to the key's slot has committed
    since, the entry is dead on arrival rather than stale. *)

val bump : t -> shard:int -> key:int -> stamp:int -> unit
(** A write of [key] committed at [stamp] against [shard]: advance the
    shard's epoch into the key's slot (invalidating the slot's cached
    entry) and publish the stamp for the freshness check. Call while the
    shard's gate is still held. Under the [Dst.Inject.Stale_cache] bug
    the invalidation is skipped while the stamp still publishes — the
    forgotten-invalidation fault the TxSan {!San.cache_hit} rule exists
    to catch. *)

val stats : t -> (string * int) list
(** [cache_hits] / [cache_misses] / [cache_invalidations]. *)

val hit_rate : t -> float
