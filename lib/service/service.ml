(* Sharded KV service: a router in front of N independent stores.

   Every shard is a complete stack — its own Mempool, its own HOH
   structure, its own telemetry — built from one Factories.Spec. Keys
   hash to shards; single-key traffic and same-shard batches run under a
   per-shard shared gate, cross-shard multi-key operations take the
   involved shards' gates exclusively (in ascending shard order) and run
   two-phase commit over per-shard transactions. The gates carry no data:
   they only exclude multis from overlapping the shards they span, so the
   per-shard TM stamps of a multi's sub-transactions are a valid global
   serialization (DESIGN.md, decision 10).

   Three optional layers ride in front of the router (DESIGN.md,
   decision 13):

   - a hot-key read cache ({!Hotcache}): single-key Gets are answered
     from a per-shard versioned table when valid, skipping the gate and
     the transaction entirely; every write path bumps its key's slot in
     the owning shard's table while its gate is still held (a 2PC multi
     bumps every key it writes before releasing any gate);
   - per-shard worker pools ({!Pool}): {!submit} enqueues an operation
     group on the owning shard's bounded queue and returns a ticket; the
     shard's worker drains the queue head into one fused batch;
   - SLO admission control: the pool's controller sheds low-priority
     submissions with an [Overload] reply when the projected p99 lag
     exceeds the configured SLO. *)

open Harness

(* The service library is wrapped behind this module; re-export the
   front layers so benches and white-box tests can reach them. *)
module Worker_pool = Pool
module Hot_cache = Hotcache

type priority = Pool.priority = High | Low

type gate = { word : int Atomic.t; readers : int Atomic.t }
(* [word] = 0 free, or owner thread id + 1 (exclusive). [readers] counts
   single-op traffic currently inside the shard. *)

let gate_make () = { word = Pad.atomic 0; readers = Pad.atomic 0 }

let rec enter_shared g =
  if Atomic.get g.word = 0 then begin
    Atomic.incr g.readers;
    (* recheck: a writer may have claimed the gate between the load and
       the increment; back out so it is not stuck waiting on us *)
    if Atomic.get g.word <> 0 then begin
      Atomic.decr g.readers;
      Dst.point Dst.Svc_gate;
      Domain.cpu_relax ();
      enter_shared g
    end
  end
  else begin
    Dst.point Dst.Svc_gate;
    Domain.cpu_relax ();
    enter_shared g
  end

let exit_shared g = Atomic.decr g.readers

let enter_excl g ~thread =
  while not (Atomic.compare_and_set g.word 0 (thread + 1)) do
    Dst.point Dst.Svc_gate;
    Domain.cpu_relax ()
  done;
  while Atomic.get g.readers > 0 do
    Dst.point Dst.Svc_gate;
    Domain.cpu_relax ()
  done

let exit_excl g = Atomic.set g.word 0

(* ---- cross-shard intent log ---- *)

type sub_state =
  | Pending  (** not yet applied *)
  | Applying  (** apply in flight: effect may or may not have landed *)
  | Applied of Store.op option  (** applied; the compensating op, if any *)

type intent = {
  i_thread : int;
  i_subs : (int * Store.op * sub_state ref) array;  (** (shard, op, state) *)
}

type counters = {
  singles : int Atomic.t;
  batches : int Atomic.t;
  multis : int Atomic.t;
  multi_aborts : int Atomic.t;
  recovered : int Atomic.t;
}

type t = {
  label : string;
  stores : Store.t array;
  gates : gate array;
  fuse : bool;
  inflight : intent option array;  (* indexed by TM thread id *)
  c : counters;
  cache : Hotcache.t option;
  mutable pool : Pool.t option;
      (* mutable only to tie the knot: the pool's exec closure needs [t] *)
}

let label t = t.label
let shards t = Array.length t.stores

(* Deterministic key-to-shard routing: a 63-bit splitmix-style finalizer
   so adjacent keys scatter instead of striping. *)
let mix k =
  let k = k * 0x20ab53db4bb37 in
  let k = k lxor (k lsr 29) in
  let k = k * 0x4cf5ad432745937 in
  (k lxor (k lsr 32)) land max_int

let shard_of_key t k = mix k mod Array.length t.stores

let with_shared t s f =
  enter_shared t.gates.(s);
  Fun.protect ~finally:(fun () -> exit_shared t.gates.(s)) f

(* ---- hot-cache maintenance ---- *)

(* A write of [key] committed at [stamp] against [shard]: invalidate the
   key's cache slot. Callers still hold the shard's gate. The
   [Stale_cache] injected bug (handled inside {!Hotcache.bump}) skips the
   invalidation while the published last-write stamp still advances —
   the TxSan freshness rule catches the resulting stale hits. *)
let bump_cache t ~shard ~key ~stamp =
  match t.cache with
  | Some c -> Hotcache.bump c ~shard ~key ~stamp
  | None -> ()

(* Post-batch cache maintenance, run while the shard's gate is held:
   bump for every reply that mutated the shard, then populate from Get
   replies under the pre-batch epoch (stillborn if any write — ours or a
   concurrent one — has committed since [epoch0] was read). *)
let cache_after_batch t ~shard ~epoch0 ops replies =
  match t.cache with
  | None -> ()
  | Some cache ->
      Array.iteri
        (fun i (r : Store.reply) ->
          match r.Store.outcome with
          | Store.Inserted | Store.Removed ->
              bump_cache t ~shard ~key:(Store.op_key ops.(i))
                ~stamp:r.Store.stamp
          | Store.Found | Store.Absent -> (
              match ops.(i) with
              | Store.Get k -> Hotcache.note cache ~shard ~epoch0 k r
              | _ -> ())
          | _ -> ())
        replies

(* The workhorse for same-shard operation groups: one [Store.batch] —
   fused into a single transaction when the service fuses — under the
   shard's shared gate, with cache maintenance before the gate drops.
   Both the synchronous paths and the pool workers land here. *)
let run_shard_ops t ~shard ~thread ops =
  let epoch0 =
    match t.cache with Some c -> Hotcache.epoch c ~shard | None -> 0
  in
  with_shared t shard (fun () ->
      let replies = Store.batch ~fuse:t.fuse t.stores.(shard) ~thread ops in
      cache_after_batch t ~shard ~epoch0 ops replies;
      replies)

(* ---- construction ---- *)

let create ?shards ?fuse ?pool ?hotcache ?slo_us ?(pool_spawn = true)
    (spec : Factories.Spec.t) =
  let knob o spec_v default =
    match o with Some v -> v | None -> Option.value spec_v ~default
  in
  let n = knob shards spec.Factories.Spec.shards 1 in
  if n < 1 then invalid_arg "Service.create: shards must be >= 1";
  let fuse = knob fuse spec.Factories.Spec.fuse true in
  let pool_on = knob pool spec.Factories.Spec.pool false in
  let cache_on = knob hotcache spec.Factories.Spec.hotcache false in
  let slo_us =
    match slo_us with Some _ -> slo_us | None -> spec.Factories.Spec.slo_us
  in
  if slo_us <> None && not pool_on then
    invalid_arg "Service.create: slo_us requires pool";
  let f = Factories.make spec in
  let t =
    {
      label =
        Factories.Spec.label
          {
            spec with
            Factories.Spec.shards = Some n;
            pool = (if pool_on then Some true else spec.Factories.Spec.pool);
            hotcache =
              (if cache_on then Some true else spec.Factories.Spec.hotcache);
            slo_us;
          };
      stores = Array.init n (fun _ -> f.Factories.make ());
      gates = Array.init n (fun _ -> gate_make ());
      fuse;
      inflight = Array.make Tm.Thread.max_threads None;
      c =
        {
          singles = Atomic.make 0;
          batches = Atomic.make 0;
          multis = Atomic.make 0;
          multi_aborts = Atomic.make 0;
          recovered = Atomic.make 0;
        };
      cache = (if cache_on then Some (Hotcache.create ~shards:n ()) else None);
      pool = None;
    }
  in
  if pool_on then
    t.pool <-
      Some
        (Pool.create
           ?slo_ns:(Option.map (fun us -> us * 1_000) slo_us)
           ~spawn:pool_spawn ~shards:n
           ~exec:(fun ~shard ~thread ops -> run_shard_ops t ~shard ~thread ops)
           ~finalize:(fun ~thread ->
             Array.iter (fun st -> Store.finalize_thread st ~thread) t.stores)
           ());
  (match t.pool with
  | Some p when Telemetry.enabled () ->
      Telemetry.Gauges.register ~group:"service" ~name:"queue_depth" (fun () ->
          List.map
            (fun (k, v) -> (k, float_of_int v))
            (Pool.counters p))
  | _ -> ());
  (match t.cache with
  | Some c when Telemetry.enabled () ->
      Telemetry.Gauges.register ~group:"service" ~name:"cache_hits" (fun () ->
          ("hit_rate", Hotcache.hit_rate c)
          :: List.map (fun (k, v) -> (k, float_of_int v)) (Hotcache.stats c))
  | _ -> ());
  t

(* ---- single-key and same-shard traffic ---- *)

let overload_reply = { Store.outcome = Store.Overload; earliest = 0; stamp = 0 }

let exec_point t ~thread op =
  Atomic.incr t.c.singles;
  let s = shard_of_key t (Store.op_key op) in
  match (op, t.cache) with
  | Store.Get k, Some cache -> (
      match Hotcache.find cache ~shard:s ~thread k with
      | Some r -> r
      | None ->
          let epoch0 = Hotcache.epoch cache ~shard:s in
          with_shared t s (fun () ->
              let r = Store.exec t.stores.(s) ~thread op in
              (match r.Store.outcome with
              | Store.Found | Store.Absent ->
                  Hotcache.note cache ~shard:s ~epoch0 k r
              | _ -> ());
              r))
  | _ ->
      with_shared t s (fun () ->
          let r = Store.exec t.stores.(s) ~thread op in
          (match r.Store.outcome with
          | Store.Inserted | Store.Removed ->
              bump_cache t ~shard:s ~key:(Store.op_key op)
                ~stamp:r.Store.stamp
          | _ -> ());
          r)

(* A scan's range spans shards under hash routing, so the service
   decomposes it into per-shard Get probes (each sub-batch under that
   shard's gate, fused when the service fuses) and merges the hits. The
   result is interval-linearized across [earliest, stamp], like
   Store-level scans. *)
let exec_scan t ~thread ~low ~count =
  if count < 0 then invalid_arg "Service.exec: negative scan count";
  let n = Array.length t.stores in
  let keys_of_shard = Array.make n [] in
  for k = low + count - 1 downto low do
    let s = shard_of_key t k in
    keys_of_shard.(s) <- k :: keys_of_shard.(s)
  done;
  let hits = ref [] and earliest = ref max_int and stamp = ref 0 in
  for s = n - 1 downto 0 do
    match keys_of_shard.(s) with
    | [] -> ()
    | keys ->
        let ops = Array.of_list (List.map (fun k -> Store.Get k) keys) in
        let replies = run_shard_ops t ~shard:s ~thread ops in
        Array.iteri
          (fun i r ->
            earliest := min !earliest r.Store.earliest;
            stamp := max !stamp r.Store.stamp;
            if Store.positive r.Store.outcome then
              hits := Store.op_key ops.(i) :: !hits)
          replies
  done;
  let hits = List.sort compare !hits in
  {
    Store.outcome = Store.Keys hits;
    earliest = (if !earliest = max_int then 0 else !earliest);
    stamp = !stamp;
  }

let exec t ~thread op =
  match op with
  | Store.Scan { low; count } -> exec_scan t ~thread ~low ~count
  | _ -> exec_point t ~thread op

(* Group a batch by shard (preserving per-shard issue order), run each
   shard's sub-batch under its shared gate as one Store.batch — fused
   into a single transaction when the service fuses — and scatter the
   replies back to the request positions. Scans are executed inline: they
   span shards, so they cannot join a sub-batch. *)
let exec_batch t ~thread ops =
  Atomic.incr t.c.batches;
  let n = Array.length t.stores in
  let by_shard = Array.make n [] in
  Array.iteri
    (fun i op ->
      match op with
      | Store.Scan _ -> ()
      | op -> (
          let s = shard_of_key t (Store.op_key op) in
          by_shard.(s) <- (i, op) :: by_shard.(s)))
    ops;
  let replies =
    Array.make (Array.length ops)
      { Store.outcome = Store.Absent; earliest = 0; stamp = 0 }
  in
  for s = 0 to n - 1 do
    match List.rev by_shard.(s) with
    | [] -> ()
    | subs ->
        let idx = Array.of_list (List.map fst subs) in
        let sub_ops = Array.of_list (List.map snd subs) in
        let rs = run_shard_ops t ~shard:s ~thread sub_ops in
        Array.iteri (fun j r -> replies.(idx.(j)) <- r) rs
  done;
  Array.iteri
    (fun i op ->
      match op with
      | Store.Scan { low; count } -> replies.(i) <- exec_scan t ~thread ~low ~count
      | _ -> ())
    ops;
  replies

(* ---- cross-shard multi-key operations: two-phase commit ---- *)

type multi_result =
  | Committed of Store.reply array
  | Aborted of int
      (** index of the first operation whose precondition failed; no
          effect was applied *)

let check_multi_ops ops =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun op ->
      match op with
      | Store.Scan _ -> invalid_arg "Service.multi: scans are not multi ops"
      | Store.Get _ -> ()
      | Store.Insert k | Store.Remove k ->
          if Hashtbl.mem seen k then
            invalid_arg "Service.multi: duplicate write key"
          else Hashtbl.add seen k ())
    ops

let undo_of = function
  | Store.Insert k -> Some (Store.Remove k)
  | Store.Remove k -> Some (Store.Insert k)
  | Store.Get _ | Store.Scan _ -> None

(* Compensate the already-applied prefix, most recent first. Runs with
   the gates still held, so the rollback is invisible to other threads:
   they observe either nothing or the full multi. *)
let rollback t ~thread intent =
  let n = Array.length intent.i_subs in
  for j = n - 1 downto 0 do
    let s, _, state = intent.i_subs.(j) in
    match !state with
    | Applied (Some undo) ->
        let r = Store.exec t.stores.(s) ~thread undo in
        (* the compensation is a write too: invalidate its cache slot
           before the gate drops *)
        bump_cache t ~shard:s ~key:(Store.op_key undo) ~stamp:r.Store.stamp;
        state := Pending
    | Applied None -> state := Pending
    | Applying | Pending -> state := Pending
  done

let release_gates t intent =
  let released = Hashtbl.create 8 in
  Array.iter
    (fun (s, _, _) ->
      if not (Hashtbl.mem released s) then begin
        Hashtbl.add released s ();
        exit_excl t.gates.(s)
      end)
    intent.i_subs

let multi t ~thread ops =
  check_multi_ops ops;
  Atomic.incr t.c.multis;
  let subs =
    Array.map (fun op -> (shard_of_key t (Store.op_key op), op, ref Pending)) ops
  in
  let intent = { i_thread = thread; i_subs = subs } in
  let gate_shards =
    List.sort_uniq compare (Array.to_list (Array.map (fun (s, _, _) -> s) subs))
  in
  (* Publish the intent before taking the first gate: if this thread dies
     anywhere past this point, [recover] can find the intent, resolve the
     sub-states, and free the gates (gate words name their owner). *)
  t.inflight.(thread) <- Some intent;
  List.iter
    (fun s ->
      Dst.point Dst.Svc_gate;
      enter_excl t.gates.(s) ~thread)
    gate_shards;
  (* Phase 1 — prepare: check every precondition with read-only probes.
     The exclusive gates freeze the involved shards, so a probe's verdict
     still holds when phase 2 applies. *)
  let n = Array.length ops in
  let replies =
    Array.make n { Store.outcome = Store.Absent; earliest = 0; stamp = 0 }
  in
  let failed = ref (-1) in
  (try
     for i = 0 to n - 1 do
       Dst.point Dst.Svc_prepare;
       let s, op, _ = subs.(i) in
       let key = Store.op_key op in
       let probe = Store.get t.stores.(s) ~thread key in
       let ok =
         match op with
         | Store.Get _ ->
             replies.(i) <- probe;
             true
         | Store.Insert _ -> probe.Store.outcome = Store.Absent
         | Store.Remove _ -> probe.Store.outcome = Store.Found
         | Store.Scan _ -> assert false
       in
       if not ok && !failed < 0 then begin
         failed := i;
         raise Exit
       end
     done;
     (* Phase 2 — apply. Every sub-operation must succeed: prepare
        established the preconditions and the gates exclude interference.
        A failure here is an environment fault (e.g. injected allocation
        failure) and triggers compensating rollback. *)
     for i = 0 to n - 1 do
       let s, op, state = subs.(i) in
       match op with
       | Store.Get _ -> state := Applied None
       | op ->
           Dst.point Dst.Svc_apply;
           state := Applying;
           let r = Store.exec t.stores.(s) ~thread op in
           if not (Store.positive r.Store.outcome) then
             failwith "Service.multi: apply contradicted prepare";
           replies.(i) <- r;
           (* invalidate while this shard's exclusive gate (and every
              other touched shard's) is still held: no cache hit can
              observe a partially-visible multi *)
           bump_cache t ~shard:s ~key:(Store.op_key op) ~stamp:r.Store.stamp;
           state := Applied (undo_of op)
     done
   with
  | Exit -> ()
  | Dst.Killed as e ->
      (* Scheduler abandonment mid-2PC: deliberately leave the intent and
         the gates in place — the unwinding context must not run store
         transactions — and let an explicit {!recover} resolve them. *)
      raise e
  | e ->
      if not (Dst.Inject.bug Dst.Inject.Tear_2pc) then rollback t ~thread intent;
      release_gates t intent;
      t.inflight.(thread) <- None;
      raise e);
  if !failed >= 0 then begin
    Atomic.incr t.c.multi_aborts;
    release_gates t intent;
    t.inflight.(thread) <- None;
    Aborted !failed
  end
  else begin
    release_gates t intent;
    t.inflight.(thread) <- None;
    Committed replies
  end

(* ---- post-crash resolution ---- *)

let recover t =
  let tid = Tm.Thread.id () in
  let resolved = ref 0 in
  Array.iteri
    (fun owner slot ->
      match slot with
      | None -> ()
      | Some intent ->
          incr resolved;
          Atomic.incr t.c.recovered;
          (* Resolve ambiguous sub-states first: the gates were held from
             before the first probe, so the shard cannot have moved under
             the dead thread — a probe tells exactly whether the apply
             landed. *)
          Array.iter
            (fun (s, op, state) ->
              match !state with
              | Applying -> (
                  let probe = Store.get t.stores.(s) ~thread:tid (Store.op_key op) in
                  let landed =
                    match op with
                    | Store.Insert _ -> probe.Store.outcome = Store.Found
                    | Store.Remove _ -> probe.Store.outcome = Store.Absent
                    | Store.Get _ | Store.Scan _ -> false
                  in
                  state := (if landed then Applied (undo_of op) else Pending))
              | Pending | Applied _ -> ())
            intent.i_subs;
          rollback t ~thread:tid intent;
          (* Free every gate the dead thread owned — including gates it
             acquired before dying mid-acquisition loop. *)
          Array.iter
            (fun g ->
              if Atomic.get g.word = intent.i_thread + 1 then exit_excl g)
            t.gates;
          t.inflight.(owner) <- None)
    t.inflight;
  !resolved

(* ---- asynchronous submission ---- *)

type ticket =
  | Done of Store.reply array  (** answered synchronously (cache hit,
                                   no pool, or cross-shard fallback) *)
  | Queued of Pool.ticket
  | Shed of int  (** rejected by admission control; op count *)

(* The shard an operation group can be queued on: all ops must route to
   one shard, and scans never queue (they span shards). *)
let queueable_shard t ops =
  let rec go i acc =
    if i >= Array.length ops then acc
    else
      match ops.(i) with
      | Store.Scan _ -> None
      | op -> (
          let s = shard_of_key t (Store.op_key op) in
          match acc with
          | Some s' when s' <> s -> None
          | _ -> go (i + 1) (Some s))
  in
  go 0 None

let submit t ~thread ?(priority = Pool.High) ops =
  if Array.length ops = 0 then Done [||]
  else begin
    (* cache fast path: a lone Get answered without touching a queue, a
       gate, or a transaction — this is where hot-key traffic wins *)
    let hit =
      match (ops, t.cache) with
      | [| Store.Get k |], Some cache ->
          Hotcache.find cache ~shard:(shard_of_key t k) ~thread k
      | _ -> None
    in
    match hit with
    | Some r ->
        Atomic.incr t.c.singles;
        Done [| r |]
    | None -> (
        match t.pool with
        | None ->
            Done
              (if Array.length ops = 1 then [| exec t ~thread ops.(0) |]
               else exec_batch t ~thread ops)
        | Some p -> (
            match queueable_shard t ops with
            | None -> Done (exec_batch t ~thread ops)
            | Some s -> (
                (* the cache-miss Get enqueues; the worker's batch path
                   populates the entry for the next hit *)
                match Pool.submit p ~shard:s ~priority ops with
                | `Ticket tk ->
                    if Array.length ops = 1 then Atomic.incr t.c.singles
                    else Atomic.incr t.c.batches;
                    Queued tk
                | `Shed -> Shed (Array.length ops))))
  end

let await _t = function
  | Done rs -> rs
  | Queued tk -> Pool.await tk
  | Shed n -> Array.make n overload_reply

let try_await _t = function
  | Done rs -> Some rs
  | Queued tk -> Pool.try_await tk
  | Shed n -> Some (Array.make n overload_reply)

(* One worker-loop body, for DST scenarios driving drains from logical
   threads (the pool is created with [pool_spawn:false] there). *)
let pool_step t ~shard ~thread =
  match t.pool with None -> 0 | Some p -> Pool.step p ~shard ~thread

let note_lag t ns = Option.iter (fun p -> Pool.note_lag p ns) t.pool

let queue_depth t ~shard =
  match t.pool with None -> 0 | Some p -> Pool.queue_depth p ~shard

let queued t = match t.pool with None -> 0 | Some p -> Pool.depth p
let pooled t = Option.is_some t.pool

let overloaded t ~shard =
  match t.pool with None -> false | Some p -> Pool.overloaded p ~shard

let shutdown t = Option.iter Pool.shutdown t.pool

let cache_hit_rate t =
  match t.cache with None -> 0. | Some c -> Hotcache.hit_rate c

(* ---- whole-service views ---- *)

let counters t =
  [
    ("singles", Atomic.get t.c.singles);
    ("batches", Atomic.get t.c.batches);
    ("multis", Atomic.get t.c.multis);
    ("multi_aborts", Atomic.get t.c.multi_aborts);
    ("recovered", Atomic.get t.c.recovered);
  ]
  @ (match t.pool with Some p -> Pool.counters p | None -> [])
  @ match t.cache with Some c -> Hotcache.stats c | None -> []

let finalize_thread t ~thread =
  Array.iter (fun st -> Store.finalize_thread st ~thread) t.stores

let drain t = Array.iter Store.drain t.stores
let size t = Array.fold_left (fun a st -> a + Store.size st) 0 t.stores

let contents t =
  List.sort compare (List.concat_map Store.contents (Array.to_list t.stores))

let sum_opt f t =
  Array.fold_left
    (fun acc st ->
      match (acc, f st) with
      | Some a, Some v -> Some (a + v)
      | None, v -> v
      | acc, None -> acc)
    None t.stores

let pool_live t = sum_opt Store.pool_live t
let leaked t = sum_opt Store.leaked t

let max_backlog t =
  Array.fold_left
    (fun acc st ->
      match (acc, Store.max_backlog st) with
      | Some a, Some v -> Some (max a v)
      | None, v -> v
      | acc, None -> acc)
    None t.stores

let check t =
  let ( let* ) = Result.bind in
  let* () =
    Array.fold_left
      (fun acc (i, st) ->
        let* () = acc in
        match Store.check st with
        | Ok () -> Ok ()
        | Error e -> Error (Printf.sprintf "shard %d: %s" i e))
      (Ok ())
      (Array.mapi (fun i st -> (i, st)) t.stores)
  in
  let* () =
    if Array.exists Option.is_some t.inflight then
      Error "unresolved in-flight multi intent (recover not run?)"
    else Ok ()
  in
  let* () =
    match t.pool with
    | Some p when Pool.depth p > 0 ->
        Error
          (Printf.sprintf "%d requests still queued (shutdown not run?)"
             (Pool.depth p))
    | _ -> Ok ()
  in
  let* () =
    match
      Array.find_index (fun g -> Atomic.get g.word <> 0) t.gates
    with
    | Some i -> Error (Printf.sprintf "gate %d still held" i)
    | None -> Ok ()
  in
  (* shards partition the keyspace: a key routed to shard s must never
     surface from another shard *)
  let misrouted = ref None in
  Array.iteri
    (fun s st ->
      List.iter
        (fun k ->
          if shard_of_key t k <> s && !misrouted = None then
            misrouted := Some (k, s))
        (Store.contents st))
    t.stores;
  match !misrouted with
  | Some (k, s) ->
      Error (Printf.sprintf "key %d found in shard %d, routes to %d" k s
               (shard_of_key t k))
  | None -> Ok ()

(* ---- the service as a Store ----

   The router satisfies Store_intf.S itself, so anything that drives a
   store — the benchmark driver and its serialization checker included —
   can drive a sharded service unchanged. *)

module As_store = struct
  type nonrec t = t

  let name t = t.label
  let stamped t = Array.for_all Store.stamped t.stores
  let get t ~thread k = exec t ~thread (Store.Get k)
  let insert t ~thread k = exec t ~thread (Store.Insert k)
  let remove t ~thread k = exec t ~thread (Store.Remove k)
  let scan t ~thread ~low ~count = exec_scan t ~thread ~low ~count
  let batch t ~thread ~fuse:_ ops = exec_batch t ~thread ops
  let stats t = Telemetry.Report.snapshot ~label:t.label ()
  let finalize_thread = finalize_thread
  let drain = drain
  let size = size
  let contents = contents
  let check = check
  let pool_live = pool_live
  let max_backlog = max_backlog
  let leaked = leaked
end

let as_store t = Store.pack (module As_store : Store.S with type t = t) t
