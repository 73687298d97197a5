(* The layer ladder: single-thread, uncontended costs of each layer's
   public calls, timed from outside. Each rung is the floor of the layer
   above it, so comparing a rung with a workload's latency separates
   contention from cost. Every rung has its own warm-up and reports the
   median over repeated timed batches. Run with telemetry off. *)

module Store = Harness.Store
module Workload = Harness.Workload

let now = Telemetry.now_ns
let reps = 9
let batch_ns = 20_000_000

(* Median per-call nanoseconds of [f]. The warm-up runs [f] for one batch
   length and sizes the timed batches from its call count. *)
let time_rung f =
  let t0 = now () in
  let n = ref 0 in
  while now () - t0 < batch_ns do
    f ();
    incr n
  done;
  let iters = max 1 !n in
  Samples.median_float
    (List.init reps (fun _ ->
         let t0 = now () in
         for _ = 1 to iters do
           f ()
         done;
         float_of_int (now () - t0) /. float_of_int iters))

(* A get rung cycles through seeded uniform keys of the workload's key
   range, so hits and misses follow the prefill ratio. *)
let keys ~seed ~bits ~keep =
  let rng = Workload.Rng.create ~seed ~thread:77 in
  let a = Array.make 4096 0 and i = ref 0 in
  while !i < Array.length a do
    let k = 1 + Workload.Rng.int rng (1 lsl bits) in
    if keep k then begin
      a.(!i) <- k;
      incr i
    end
  done;
  a

let cycling a f =
  let i = ref 0 in
  fun () ->
    f a.(!i);
    i := (!i + 1) land (Array.length a - 1)

let run ~seed ~thread =
  let tv = Tm.tvar 0 in
  let ro txn = ignore (Tm.read txn tv) in
  let rw txn = Tm.write txn tv (Tm.read txn tv + 1) in
  let tm_ro = time_rung (fun () -> Tm.atomic ro) in
  let tm_rw = time_rung (fun () -> Tm.atomic rw) in
  let tm_serial = time_rung (fun () -> Tm.atomic ~max_attempts:0 rw) in
  let rr = Rr.instantiate (module Rr.V) ~hash:Fun.id ~equal:Int.equal () in
  let r = 42 in
  let reserve txn =
    rr.Rr.register txn;
    rr.Rr.reserve txn r
  in
  let reserve_release txn =
    reserve txn;
    rr.Rr.release txn r
  in
  let get txn =
    rr.Rr.register txn;
    rr.Rr.get txn r
  in
  let revoke txn =
    rr.Rr.register txn;
    rr.Rr.revoke txn r
  in
  let rr_reserve_release = time_rung (fun () -> Tm.atomic reserve_release) in
  Tm.atomic reserve;
  if Tm.atomic get <> Some r then failwith "ladder: RR-V lost a reservation";
  let rr_get = time_rung (fun () -> ignore (Tm.atomic get)) in
  let rr_revoke = time_rung (fun () -> Tm.atomic revoke) in
  let pool =
    Mempool.create
      ~make:(fun id -> (id, Atomic.make 0))
      ~node_id:fst ~state:snd ()
  in
  let mempool =
    time_rung (fun () ->
        Mempool.free pool ~thread (Mempool.alloc pool ~thread))
  in
  let store_get w =
    let t = Target.build w ~seed ~thread in
    let ks = keys ~seed ~bits:(Target.key_bits w) ~keep:(fun _ -> true) in
    time_rung (cycling ks (fun k -> ignore (Target.get t ~thread k)))
  in
  let list_get = store_get Target.List_read in
  let tree_get = store_get Target.Tree_update in
  (* The service rungs run on the kv-zipf shape and use only the keys of
     shard 0; the shard rung is a standalone tree holding exactly shard
     0's keys, inserted in the same order, so the two rungs differ by the
     service layer alone. *)
  let w = Target.Kv_zipf in
  let svc = Service.create (Target.spec w) in
  let on_shard s k = Service.shard_of_key svc k = s in
  let initial = Target.prefill_keys w ~seed in
  Target.prefill (Target.Service svc) ~thread initial;
  let shard = Target.Store ((Harness.Factories.make (Target.spec w)).make ()) in
  Target.prefill shard ~thread (List.filter (on_shard 0) initial);
  let ks0 = keys ~seed ~bits:(Target.key_bits w) ~keep:(on_shard 0) in
  let shard_get =
    time_rung (cycling ks0 (fun k -> ignore (Target.get shard ~thread k)))
  in
  let service_get =
    time_rung
      (cycling ks0 (fun k -> ignore (Service.exec svc ~thread (Store.Get k))))
  in
  (* A two-shard transfer that always commits: move a key from shard 0 to
     shard 1 and back. *)
  let present = List.find (on_shard 0) initial in
  let absent =
    let rec go k = if on_shard 1 k && not (List.mem k initial) then k else go (k + 1) in
    go 1
  in
  let there = [| Store.Remove present; Store.Insert absent |]
  and back = [| Store.Remove absent; Store.Insert present |] in
  let flip = ref false in
  let service_multi =
    time_rung (fun () ->
        let ops = if !flip then back else there in
        flip := not !flip;
        match Service.multi svc ~thread ops with
        | Service.Committed _ -> ()
        | Service.Aborted _ -> failwith "ladder: transfer multi aborted")
  in
  [
    ("ladder.tm_ro_txn_ns", tm_ro);
    ("ladder.tm_rw_txn_ns", tm_rw);
    ("ladder.tm_serial_txn_ns", tm_serial);
    ("ladder.rr_reserve_release_ns", rr_reserve_release);
    ("ladder.rr_get_ns", rr_get);
    ("ladder.rr_revoke_ns", rr_revoke);
    ("ladder.mempool_alloc_free_ns", mempool);
    ("ladder.list_get_ns", list_get);
    ("ladder.tree_get_ns", tree_get);
    ("ladder.shard_get_ns", shard_get);
    ("ladder.service_get_ns", service_get);
    ("ladder.service_multi_ns", service_multi);
  ]
