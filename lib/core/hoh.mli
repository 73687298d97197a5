(** The hand-over-hand transaction engine (the skeleton of the paper's
    Listing 5 [Apply]).

    An operation is a chain of transactions. Each transaction receives the
    validated hand-off point of its predecessor ([start = Some node] if the
    reservation survived, [None] if it was revoked or this is the first
    transaction — in which case the traversal begins at the root/head) and
    either finishes the operation or hands off by naming the node to
    reserve for the next transaction. The engine performs the
    register / get / release-all / reserve choreography so the data
    structures contain only traversal logic. *)

type ('r, 'a) outcome =
  | Finish of 'a  (** operation complete; release reservations and commit *)
  | Hand_off of 'r
      (** commit this window, reserving the given node as the next start *)

(** Per-thread window budgets with the paper's [scatter] optimization: the
    first window of an operation spans a random 1..budget nodes so that
    threads starting together do not all try to reserve the same node;
    subsequent windows span the full budget.

    By default the budget is a per-thread controller that MIMD-adjusts
    itself from contention feedback: a window that commits without
    contention aborts doubles it (up to [4 * w]); one that pays
    read-validation / lock-busy / serial-pending aborts, or escalates to
    the serial fallback, halves it (down to 1). The feedback is recorded
    by {!apply} when the window is passed to it. With [~adaptive:false] the budget is
    the paper's static W, which the figure benchmarks and the pinned
    deterministic-schedule scenarios rely on. *)
module Window : sig
  type t

  val create : ?scatter:bool -> ?adaptive:bool -> int -> t
  (** [create w] with [w >= 1]; [scatter] and [adaptive] default to
      [true]. [w] is the static budget, and the adaptive controller's
      starting point and quarter-ceiling. *)

  val size : t -> int
  (** The static [w], regardless of adaptation. *)

  val adaptive : t -> bool

  val budget : t -> thread:int -> int
  (** The live budget for a continuation window: [thread]'s adapted value,
      or [w] when not adaptive. *)

  val record : t -> thread:int -> contended:bool -> unit
  (** Feed one committed window's outcome to [thread]'s controller; no-op
      when not adaptive. *)

  val first_budget : t -> thread:int -> int
  (** Budget for an operation's first window: uniform in [1..budget] when
      scattering, else [budget]. Uses a per-thread generator, so it is
      safe to call concurrently. *)
end

val apply :
  rr:'r Rr_intf.ops ->
  ?site:string ->
  ?max_attempts:int ->
  ?read_phase:bool ->
  ?window:Window.t * int ->
  ?middle:Tm.Middle.t ->
  (Tm.txn -> start:'r option -> ('r, 'a) outcome) ->
  'a
(** [apply ~rr step] runs [step] in successive transactions until it
    finishes. If an attempt aborts, [step] re-runs in a fresh transaction
    with the reservation re-checked; if the reservation was revoked
    meanwhile, [start] is [None] and the step must restart from the
    beginning of the structure.

    [site] is forwarded to {!Tm.atomic} as the telemetry attribution label
    for every window transaction of this operation, and [read_phase] as
    the pure-traversal hint (locked reads wait instead of aborting; no
    serial escalation — see {!Tm.atomic}).

    [window] is [(w, thread)]: when [w] is adaptive, every window
    transaction's contention outcome is fed back to [thread]'s budget
    controller via {!Window.record}. The step callback still chooses its
    own budgets (via {!Window.budget} / {!Window.first_budget}); passing
    [window] closes the feedback loop.

    [middle] is forwarded to {!Tm.atomic} as the structure's middle-path
    lock for every window transaction of this operation. *)

val apply_stamped :
  rr:'r Rr_intf.ops ->
  ?site:string ->
  ?max_attempts:int ->
  ?read_phase:bool ->
  ?window:Window.t * int ->
  ?middle:Tm.Middle.t ->
  (Tm.txn -> start:'r option -> ('r, 'a) outcome) ->
  'a * int
(** Like {!apply} but also returns the commit stamp of the {e final}
    transaction — the operation's linearization point, used by the
    serialization checker. *)
