(* Hot-key read cache in front of the service router.

   One small direct-mapped table per shard, versioned by invalidation
   epochs instead of per-key deletion. Each shard keeps a write counter
   [epoch]; every write committing against the shard advances it and
   records the new value as its slot's [bumped] epoch (a CAS-max, while
   the shard gate is still held). A populated entry remembers the shard
   epoch observed *before* its lookup transaction ran, and a hit is valid
   only while no write to the entry's slot has bumped past it. So a write
   invalidates the entries of its own slot, not the whole shard, and the
   populate/invalidate race stays closed: a reply populated concurrently
   with a write to its key carries a pre-write epoch and can never be
   served (DESIGN.md, decision 13).

   Freshness is checkable: alongside the bumped epoch each slot publishes
   the stamp of its last committed write (bumped first, so a valid entry
   implies the published stamp predates the entry's lookup). On every hit
   the TxSan hook asserts [entry stamp >= slot's last committed write
   stamp]; the [Stale_cache] injected bug (skip the bump) trips it. *)

open Harness

type entry = {
  e_key : int;
  e_epoch : int;  (** shard epoch observed before the lookup transaction *)
  e_present : bool;
  e_earliest : int;
  e_stamp : int;
}

type shard = {
  epoch : int Atomic.t;  (** write counter, advanced by every bump *)
  bumped : int Atomic.t array;
      (** per slot: epoch of its last bump, CAS-maxed *)
  last_write : int Atomic.t array;
      (** per slot: max commit stamp of any write, CAS-maxed *)
  slots : entry option Atomic.t array;
}

type t = {
  mask : int;
  shards : shard array;
  hits : int Atomic.t;
  misses : int Atomic.t;
  invalidations : int Atomic.t;
}

let default_capacity = 256

let create ?(capacity = default_capacity) ~shards () =
  if shards < 1 then invalid_arg "Hotcache.create: shards must be >= 1";
  let cap =
    (* round up to a power of two so the slot index is a mask *)
    let rec up n = if n >= capacity then n else up (n * 2) in
    up 16
  in
  {
    mask = cap - 1;
    shards =
      Array.init shards (fun _ ->
          {
            epoch = Pad.atomic 0;
            bumped = Array.init cap (fun _ -> Atomic.make 0);
            last_write = Array.init cap (fun _ -> Atomic.make 0);
            slots = Array.init cap (fun _ -> Atomic.make None);
          });
    hits = Pad.atomic 0;
    misses = Pad.atomic 0;
    invalidations = Pad.atomic 0;
  }

let epoch t ~shard = Atomic.get t.shards.(shard).epoch

(* Lookup for a single-key [Get]. A hit returns the cached reply; the
   entry is valid only when no write to its slot was bumped past the
   epoch it was populated under. *)
let find t ~shard ~thread key =
  let s = t.shards.(shard) in
  let i = key land t.mask in
  Dst.point Dst.Svc_cache;
  match Atomic.get s.slots.(i) with
  | Some e when e.e_key = key && e.e_epoch >= Atomic.get s.bumped.(i) ->
      Atomic.incr t.hits;
      San.cache_hit ~thread ~shard ~stamp:e.e_stamp
        ~last_write:(Atomic.get s.last_write.(i));
      Some
        {
          Store.outcome = (if e.e_present then Store.Found else Store.Absent);
          earliest = e.e_earliest;
          stamp = e.e_stamp;
        }
  | _ ->
      Atomic.incr t.misses;
      None

(* Populate from a lookup reply. [epoch0] must have been read (via
   {!epoch}) before the lookup transaction started: if a write to the
   entry's slot committed since, the slot's bumped epoch has moved past
   [epoch0] and the entry is stillborn — present but never served. *)
let note t ~shard ~epoch0 key (r : Store.reply) =
  match r.Store.outcome with
  | Store.Found | Store.Absent ->
      let s = t.shards.(shard) in
      Atomic.set
        s.slots.(key land t.mask)
        (Some
           {
             e_key = key;
             e_epoch = epoch0;
             e_present = r.Store.outcome = Store.Found;
             e_earliest = r.Store.earliest;
             e_stamp = r.Store.stamp;
           })
  | _ -> ()

let rec cas_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then cas_max a v

(* A write of [key] committed at [stamp] against [shard]: invalidate the
   key's slot. The epoch bump comes first so no hit can observe the new
   last-write stamp while an entry from before the write still validates.
   Callers hold the shard's gate (shared for singles/batches, exclusive
   for 2PC applies), but writers under the shared gate may bump
   concurrently — hence atomics, and CAS-max for both per-slot words: a
   writer that drew a smaller epoch must not pull the slot's bumped epoch
   back under one a later write already published. *)
let bump t ~shard ~key ~stamp =
  let s = t.shards.(shard) in
  let i = key land t.mask in
  (* The [Stale_cache] injected bug models a writer that forgets to
     invalidate: the epoch bump is skipped, leaving the slot's cached
     entry servable. The published last-write stamp still advances —
     it is the freshness ground truth the TxSan hit check compares
     against, which is exactly what makes the forgotten invalidation
     detectable at the next hit. *)
  if not (Dst.Inject.bug Dst.Inject.Stale_cache) then begin
    cas_max s.bumped.(i) (Atomic.fetch_and_add s.epoch 1 + 1);
    Atomic.incr t.invalidations
  end;
  cas_max s.last_write.(i) stamp

let stats t =
  [
    ("cache_hits", Atomic.get t.hits);
    ("cache_misses", Atomic.get t.misses);
    ("cache_invalidations", Atomic.get t.invalidations);
  ]

let hit_rate t =
  let h = Atomic.get t.hits and m = Atomic.get t.misses in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
