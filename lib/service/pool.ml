(* Per-shard worker pools with bounded MPSC request queues.

   Clients submit operation groups asynchronously: a submission lands in
   the owning shard's bounded ring and returns a completion cell; the
   shard's worker domain drains the queue head into one fused batch per
   pass, so queue pressure converts into larger transactions —
   the expensive per-transaction work (clock stamp, reserve/check round)
   is paid once per batch, not once per request (the amortization the
   service layer already exploits for explicit batches, now applied to
   independent requests; DESIGN.md, decision 13).

   The pool is generic over the execution closure so it carries no
   dependency on the router: the service passes a closure that takes the
   shard's gate, runs [Store.batch ~fuse], and bumps the hot-cache epoch
   for writes.

   Worker domains are capped at one fewer than the machine's cores (at
   least one): a drain domain without a core of its own adds a wake-up
   to every request it serves and a straggler to every stop-the-world
   minor collection, so past that count a worker serves several shards,
   draining each in turn. The cap assumes the clients need one core; it
   has only been measured on 2 vCPUs, where one worker drains all four
   shards. With the [s mod workers] mapping the split can be uneven (4
   shards on 3 workers gives worker 0 two of them). Sharing a worker
   also shares its stalls: while one of its shards' gates is held
   exclusively (a 2PC multi), the worker waits in the gate and drains
   none of its other shards either, a wait the admission projection
   does not see.

   Admission control rides the same queues: a controller projects the
   p99 queueing lag of a new arrival from the shard's queue depth and a
   decaying-max estimate of per-request service time, folds in the
   open-loop lag signal reported by {!note_lag}, and sheds low-priority
   requests ([`Shed], served as [Overload] replies by the service) when
   the projection exceeds the configured SLO. High-priority requests are
   never shed; they are deferred — enqueued anyway — and counted.

   Determinism: with [spawn:false] no domains start and a DST scenario
   drives {!step} from logical threads; [submit]/[await] yield at the
   [Svc_enqueue] site and [step] at [Svc_drain], so queue-drain
   interleavings are explorable and replayable. *)

open Harness

type priority = High | Low

type cell = {
  mutable c_replies : Store.reply array;
  c_done : bool Atomic.t;
  c_mu : Mutex.t;
  c_cond : Condition.t;
}

type ticket = cell

type req = { r_ops : Store.op array; r_cell : cell }

(* One per worker domain: the shards it drains, and its idle parking — a
   worker that found all its rings empty publishes [sleeping] and blocks
   on [wake]; producers signal after an enqueue. Without the parking an
   idle worker spin-burns its whole OS timeslice, which starves the
   clients on low-core machines. *)
type drainer = {
  shards : int array;
  mu : Mutex.t;
  wake : Condition.t;
  sleeping : bool Atomic.t;
}

(* Vyukov-style bounded MPMC ring (used MPSC: one worker per shard).
   [seq.(i) = pos] means slot [i] is free for the producer of ticket
   [pos]; [seq.(i) = pos + 1] means it holds ticket [pos]'s value. *)
type queue = {
  buf : req option Atomic.t array;
  seq : int Atomic.t array;
  head : int Atomic.t;  (* consumer ticket *)
  tail : int Atomic.t;  (* producer ticket *)
  depth : int Atomic.t;
  svc_p99_ns : int Atomic.t;  (* decaying max of per-request service time *)
  drained_reqs : int Atomic.t;
  drained_batches : int Atomic.t;
  drainer : drainer;  (* shared by the queues of one worker *)
  (* a dequeued request deferred to the next fused batch because it
     touches a key an earlier request in the current batch already
     touches (see [step]); single-consumer, worker-only *)
  mutable carry : req option;
}

type t = {
  qs : queue array;
  mask : int;
  drain_ops : int;  (* max operations fused into one drained batch *)
  slo_ns : int option;
  exec : shard:int -> thread:int -> Store.op array -> Store.reply array;
  finalize : thread:int -> unit;
  stop : bool Atomic.t;
  mutable workers : unit Domain.t array;
  shed_low : int Atomic.t;
  shed_high : int Atomic.t;  (* always 0: High is deferred, never shed *)
  deferred : int Atomic.t;  (* High admitted while the controller would shed *)
  lag_ns : int Atomic.t;  (* EWMA of the reported open-loop schedule lag *)
  max_depth : int Atomic.t;
}

let default_queue_capacity = 1024
let default_drain_ops = 64

let default_workers ~shards =
  min shards (max 1 (Domain.recommended_domain_count () - 1))

(* Worker [w] drains the shards [s] with [s mod workers = w]. *)
let drainer_make ~shards ~workers w =
  {
    shards =
      Array.of_list
        (List.filter (fun s -> s mod workers = w) (List.init shards Fun.id));
    mu = Mutex.create ();
    wake = Condition.create ();
    sleeping = Atomic.make false;
  }

let queue_make cap drainer =
  {
    buf = Array.init cap (fun _ -> Atomic.make None);
    seq = Array.init cap (fun i -> Atomic.make i);
    head = Pad.atomic 0;
    tail = Pad.atomic 0;
    depth = Pad.atomic 0;
    svc_p99_ns = Pad.atomic 0;
    drained_reqs = Pad.atomic 0;
    drained_batches = Pad.atomic 0;
    drainer;
    carry = None;
  }

(* ---- queue primitives ---- *)

(* Try to claim one producer ticket; returns false when the ring is full
   at the instant of the attempt. *)
let try_enqueue t q r =
  let rec go pos =
    let slot = pos land t.mask in
    let s = Atomic.get q.seq.(slot) in
    if s = pos then
      if Atomic.compare_and_set q.tail pos (pos + 1) then begin
        Atomic.set q.buf.(slot) (Some r);
        Atomic.set q.seq.(slot) (pos + 1);
        Atomic.incr q.depth;
        (* depth is published before this read, so a worker that saw the
           ring empty either sees the new depth on its recheck or is
           already parked and gets the signal *)
        let p = q.drainer in
        if Atomic.get p.sleeping then begin
          Mutex.lock p.mu;
          Condition.signal p.wake;
          Mutex.unlock p.mu
        end;
        true
      end
      else go (Atomic.get q.tail)
    else if s < pos then false (* the slot still holds lap-old data: full *)
    else go (Atomic.get q.tail)
  in
  go (Atomic.get q.tail)

let try_dequeue t q =
  let rec go pos =
    let slot = pos land t.mask in
    let s = Atomic.get q.seq.(slot) in
    if s = pos + 1 then
      if Atomic.compare_and_set q.head pos (pos + 1) then begin
        let r = Atomic.get q.buf.(slot) in
        Atomic.set q.buf.(slot) None;
        Atomic.set q.seq.(slot) (pos + t.mask + 1);
        Atomic.decr q.depth;
        r
      end
      else go (Atomic.get q.head)
    else if s <= pos then None (* empty *)
    else go (Atomic.get q.head)
  in
  go (Atomic.get q.head)

(* ---- completion cells ---- *)

let cell_make () =
  {
    c_replies = [||];
    c_done = Atomic.make false;
    c_mu = Mutex.create ();
    c_cond = Condition.create ();
  }

let complete cell replies =
  Mutex.lock cell.c_mu;
  cell.c_replies <- replies;
  Atomic.set cell.c_done true;
  Condition.broadcast cell.c_cond;
  Mutex.unlock cell.c_mu

let try_await cell =
  if Atomic.get cell.c_done then Some cell.c_replies else None

let await cell =
  if Dst.scheduled () then begin
    (* virtual threads: spin through the scheduler so a drainer thread
       can run; blocking on a condition would wedge the single domain *)
    while not (Atomic.get cell.c_done) do
      Dst.point Dst.Svc_enqueue
    done;
    cell.c_replies
  end
  else begin
    let spins = ref 0 in
    while (not (Atomic.get cell.c_done)) && !spins < 256 do
      incr spins;
      Domain.cpu_relax ()
    done;
    if not (Atomic.get cell.c_done) then begin
      Mutex.lock cell.c_mu;
      while not (Atomic.get cell.c_done) do
        Condition.wait cell.c_cond cell.c_mu
      done;
      Mutex.unlock cell.c_mu
    end;
    cell.c_replies
  end

(* ---- admission control ---- *)

(* EWMA (alpha = 1/8) of the open-loop schedule lag the harness reports;
   racy read-modify-write is fine for a control signal. *)
let note_lag t ns =
  if ns >= 0 then
    Atomic.set t.lag_ns (((7 * Atomic.get t.lag_ns) + ns) / 8)

(* Fold [f] over the queues of the worker that drains [shard]. *)
let fold_worker_queues t ~shard f acc =
  Array.fold_left
    (fun acc s -> f acc t.qs.(s))
    acc t.qs.(shard).drainer.shards

(* A new arrival waits behind everything queued for its worker, not only
   for its own shard: each of the worker's queues at its own service-time
   estimate, plus the arrival's own service. With one worker per shard
   this is (depth + 1) x estimate. *)
let projected_lag_ns t ~shard =
  fold_worker_queues t ~shard
    (fun lag q -> lag + (Atomic.get q.depth * Atomic.get q.svc_p99_ns))
    (Atomic.get t.qs.(shard).svc_p99_ns)

let worker_depth t ~shard =
  fold_worker_queues t ~shard (fun d q -> d + Atomic.get q.depth) 0

(* Would the controller shed a new arrival for [shard] right now? The
   verdict combines the queue projection with the reported open-loop lag
   so a service that is behind schedule sheds even while its queues are
   momentarily shallow. Both signals are compared against HALF the SLO:
   the projection and the EWMA both track the middle of their
   distributions, and the p99 the SLO constrains sits well above the
   middle — shedding at the full budget lands the served tail just past
   it, shedding at half leaves room for the spikes (OS preemption, a
   2PC multi freezing the shard) the controller cannot see coming.

   The projection only counts while the shard's worker has queued work.
   Its service-time estimates decay only on a drain, so after a spike
   empty queues would shed every [Low] arrival for good and never drain
   again; admitting into empty queues lets that drain refresh them. *)
let overloaded t ~shard =
  match t.slo_ns with
  | None -> false
  | Some slo ->
      let budget = slo / 2 in
      (worker_depth t ~shard > 0 && projected_lag_ns t ~shard > budget)
      || Atomic.get t.lag_ns > budget

(* ---- submission ---- *)

let submit t ~shard ~priority ops =
  let over = overloaded t ~shard in
  if over && priority = Low then begin
    Atomic.incr t.shed_low;
    `Shed
  end
  else begin
    if over then Atomic.incr t.deferred;
    let cell = cell_make () in
    let r = { r_ops = ops; r_cell = cell } in
    Dst.point Dst.Svc_enqueue;
    let q = t.qs.(shard) in
    (* a full ring is backpressure, not overload: spin until space (the
       worker is draining at its fused-batch rate) — except for Low
       traffic under an SLO, which sheds rather than queue-builds *)
    let rec push () =
      if try_enqueue t q r then ()
      else if t.slo_ns <> None && priority = Low then begin
        Atomic.incr t.shed_low;
        raise Exit
      end
      else begin
        Dst.point Dst.Svc_enqueue;
        Domain.cpu_relax ();
        push ()
      end
    in
    match push () with
    | () ->
        let d = Atomic.get q.depth in
        if d > Atomic.get t.max_depth then Atomic.set t.max_depth d;
        `Ticket cell
    | exception Exit -> `Shed
  end

(* ---- drain ---- *)

(* Decaying max: an overload spike raises the estimate instantly, and it
   relaxes by 1/32 per drained batch afterwards — a cheap stand-in for a
   p99 that must react fast to congestion. *)
let note_service_time q ns =
  let cur = Atomic.get q.svc_p99_ns in
  let decayed = cur - (cur / 32) in
  Atomic.set q.svc_p99_ns (max ns (max decayed 1))

(* Drain the queue head into one fused batch: requests are popped until
   the fusion budget fills or the queue empties, their ops concatenated
   into a single [exec] call (one transaction per shard pass when the
   service fuses), and the replies scattered back to each request's
   completion cell. Returns the number of requests completed.

   Fusion is conflict-bounded: a batch never carries two requests that
   touch the same key. Fused replies all publish the batch's one commit
   stamp, so two same-key requests fused together would lose their
   relative order in any stamp-sorted history — a read fused before a
   write of its key would replay as if it ran after. The first request
   that conflicts is stashed in [carry] (still counted in [depth]) and
   leads the next batch, preserving FIFO. *)
let step t ~shard ~thread =
  let q = t.qs.(shard) in
  let take () =
    match q.carry with
    | Some r ->
        q.carry <- None;
        Atomic.decr q.depth;
        Some r
    | None -> try_dequeue t q
  in
  match take () with
  | None -> 0
  | Some first ->
      let keys = Hashtbl.create 16 in
      let note_keys r =
        Array.iter
          (fun op ->
            match op with
            | Store.Scan _ -> ()
            | op -> Hashtbl.replace keys (Store.op_key op) ())
          r.r_ops
      in
      let conflicts r =
        Array.exists
          (fun op ->
            match op with
            | Store.Scan _ -> true
            | op -> Hashtbl.mem keys (Store.op_key op))
          r.r_ops
      in
      note_keys first;
      let reqs = ref [ first ] in
      let nops = ref (Array.length first.r_ops) in
      let continue = ref true in
      while !continue && !nops < t.drain_ops do
        match try_dequeue t q with
        | None -> continue := false
        | Some r ->
            if conflicts r then begin
              q.carry <- Some r;
              Atomic.incr q.depth;
              continue := false
            end
            else begin
              note_keys r;
              reqs := r :: !reqs;
              nops := !nops + Array.length r.r_ops
            end
      done;
      let reqs = Array.of_list (List.rev !reqs) in
      Dst.point Dst.Svc_drain;
      let ops = Array.concat (Array.to_list (Array.map (fun r -> r.r_ops) reqs)) in
      let t0 = Telemetry.now_ns () in
      let replies = t.exec ~shard ~thread ops in
      let t1 = Telemetry.now_ns () in
      let n = Array.length reqs in
      if n > 0 then note_service_time q ((t1 - t0) / n);
      let off = ref 0 in
      Array.iter
        (fun r ->
          let len = Array.length r.r_ops in
          complete r.r_cell (Array.sub replies !off len);
          off := !off + len)
        reqs;
      Atomic.set q.drained_reqs (Atomic.get q.drained_reqs + n);
      Atomic.incr q.drained_batches;
      n

(* A worker drains one batch from each of its shards per pass. *)
let worker t d () =
  Tm.Thread.with_registered (fun thread ->
      let shards = d.shards in
      let queued () =
        Array.exists (fun s -> Atomic.get t.qs.(s).depth > 0) shards
      in
      let idle = ref 0 in
      let running = ref true in
      while !running do
        let n =
          Array.fold_left (fun n shard -> n + step t ~shard ~thread) 0 shards
        in
        if n > 0 then idle := 0
        else if Atomic.get t.stop then running := false
        else begin
          incr idle;
          if !idle <= 64 then Domain.cpu_relax ()
          else begin
            (* park until a producer signals: spinning here would burn a
               whole OS timeslice that the clients need *)
            Mutex.lock d.mu;
            Atomic.set d.sleeping true;
            if (not (queued ())) && not (Atomic.get t.stop) then
              Condition.wait d.wake d.mu;
            Atomic.set d.sleeping false;
            Mutex.unlock d.mu;
            idle := 0
          end
        end
      done;
      t.finalize ~thread)

(* ---- lifecycle ---- *)

let create ?(queue_capacity = default_queue_capacity)
    ?(drain_ops = default_drain_ops) ?slo_ns ?(spawn = true) ~shards ~exec
    ~finalize () =
  if shards < 1 then invalid_arg "Pool.create: shards must be >= 1";
  let workers = default_workers ~shards in
  let drainers = Array.init workers (drainer_make ~shards ~workers) in
  if queue_capacity < 2 || queue_capacity land (queue_capacity - 1) <> 0 then
    invalid_arg "Pool.create: queue_capacity must be a power of two >= 2";
  let t =
    {
      qs =
        Array.init shards (fun s ->
            let owns d = Array.mem s d.shards in
            queue_make queue_capacity
              (Option.get (Array.find_opt owns drainers)));
      mask = queue_capacity - 1;
      drain_ops = max 1 drain_ops;
      slo_ns;
      exec;
      finalize;
      stop = Atomic.make false;
      workers = [||];
      shed_low = Pad.atomic 0;
      shed_high = Pad.atomic 0;
      deferred = Pad.atomic 0;
      lag_ns = Pad.atomic 0;
      max_depth = Pad.atomic 0;
    }
  in
  if spawn then
    t.workers <- Array.map (fun d -> Domain.spawn (worker t d)) drainers;
  t

let shutdown t =
  if not (Atomic.get t.stop) then begin
    Atomic.set t.stop true;
    Array.iter
      (fun q ->
        Mutex.lock q.drainer.mu;
        Condition.broadcast q.drainer.wake;
        Mutex.unlock q.drainer.mu)
      t.qs;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

(* ---- observation ---- *)

let queue_depth t ~shard = Atomic.get t.qs.(shard).depth

let depth t =
  Array.fold_left (fun a q -> a + Atomic.get q.depth) 0 t.qs

let slo_ns t = t.slo_ns
let lag_ewma_ns t = Atomic.get t.lag_ns

let counters t =
  let drained =
    Array.fold_left (fun a q -> a + Atomic.get q.drained_reqs) 0 t.qs
  in
  let batches =
    Array.fold_left (fun a q -> a + Atomic.get q.drained_batches) 0 t.qs
  in
  [
    ("queue_depth", depth t);
    ("queue_max_depth", Atomic.get t.max_depth);
    ("drained_requests", drained);
    ("drained_batches", batches);
    ("shed_low", Atomic.get t.shed_low);
    ("shed_high", Atomic.get t.shed_high);
    ("deferred_high", Atomic.get t.deferred);
  ]
