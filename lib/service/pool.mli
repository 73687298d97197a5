(** Per-shard worker pools: bounded MPSC request queues, drain domains
    that fuse queued requests into batched transactions, and SLO-driven
    admission control.

    The pool is generic over execution: {!create} takes an [exec]
    closure (run these ops against this shard, under whatever locking
    the owner requires) so the service layer can pass its gated
    [Store.batch ~fuse] path without a dependency cycle.

    With [spawn:false] no worker domains start; a DST scenario drives
    {!step} from logical threads, and {!submit}/{!await} yield at the
    [Svc_enqueue] site so enqueue/drain interleavings replay
    deterministically. *)

type t

type priority = High | Low
(** {!Low} requests are shed with [`Shed] when the admission controller
    projects the SLO blown; {!High} requests are always admitted (and
    counted as deferred when admitted during overload). *)

type ticket
(** A pending submission's completion cell. *)

val create :
  ?queue_capacity:int ->
  ?drain_ops:int ->
  ?slo_ns:int ->
  ?spawn:bool ->
  shards:int ->
  exec:(shard:int -> thread:int -> Harness.Store.op array -> Harness.Store.reply array) ->
  finalize:(thread:int -> unit) ->
  unit ->
  t
(** [queue_capacity] (default 1024, power of two) bounds each shard's
    ring. [drain_ops] (default 64) caps the operations fused into one
    drained batch. [slo_ns] enables admission control; without it
    nothing is ever shed. The pool runs one worker domain per shard, but
    no more than [Domain.recommended_domain_count () - 1] (at least 1),
    leaving a core to the submitting clients; that cap has only been
    measured on 2 vCPUs. Worker [w] drains the shards [s] with
    [s mod workers = w], so a shard whose gate is held exclusively stalls
    every shard of its worker. [finalize] runs on each worker's
    registered thread as it exits (epoch-reclamation handoff). *)

val submit :
  t -> shard:int -> priority:priority -> Harness.Store.op array ->
  [ `Ticket of ticket | `Shed ]
(** Enqueue an operation group on [shard]'s queue. Returns [`Shed]
    without executing anything when the controller rejects a [Low]
    request (SLO projected blown, or ring full under an SLO). A full
    ring otherwise spins — backpressure, not overload. *)

val await : ticket -> Harness.Store.reply array
(** Block until the worker has executed the submission. Under DST this
    spins through the scheduler instead of blocking the domain. *)

val try_await : ticket -> Harness.Store.reply array option
(** Non-blocking poll. *)

val step : t -> shard:int -> thread:int -> int
(** Drain one fused batch from [shard]'s queue head: pops requests up to
    the fusion budget, runs them through [exec] as one batch, scatters
    replies. Returns the number of requests completed (0 when idle).
    This is the worker loop body; DST scenarios call it directly.

    Fusion never merges two requests touching the same key into one
    batch (their replies would share one commit stamp and lose their
    order in a stamp-sorted history); the conflicting request is held
    back, still counted queued, and leads the next batch. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Workers drain their queues before
    exiting, so no admitted request is abandoned. Idempotent. *)

val note_lag : t -> int -> unit
(** Report an observed open-loop schedule lag (ns); folded into the
    admission controller's EWMA lag signal. *)

val overloaded : t -> shard:int -> bool
(** Would a [Low] arrival for [shard] be shed right now? True when
    either the queue projection (counted only while the shard's worker
    has queued requests) or the lag EWMA exceeds half the SLO — the half
    is tail headroom: both signals track means, the SLO constrains a
    p99. *)

val projected_lag_ns : t -> shard:int -> int
(** The queueing lag a new arrival on [shard] would see: depth x
    decaying-max per-request service time, summed over the queues of the
    worker that drains [shard], plus [shard]'s own estimate — (depth + 1)
    x estimate when that worker drains [shard] alone. *)

val queue_depth : t -> shard:int -> int

val depth : t -> int
(** Total queued requests across shards. *)

val slo_ns : t -> int option
val lag_ewma_ns : t -> int

val counters : t -> (string * int) list
(** [queue_depth], [queue_max_depth], [drained_requests],
    [drained_batches], [shed_low], [shed_high], [deferred_high]. *)
