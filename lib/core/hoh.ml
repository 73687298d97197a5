type ('r, 'a) outcome = Finish of 'a | Hand_off of 'r

(* Per-thread window budgets. By default each thread runs its own
   contention-adaptive controller: the budget grows multiplicatively after
   a window that committed without contention and shrinks multiplicatively
   after one that paid contention aborts (read-validation, lock-busy or
   serial-pending — user retries are the operation's own business), so hot
   traversals converge on the largest window the current conflict rate
   sustains instead of a compile-time guess. Static mode is the paper's
   fixed W. Both apply the scatter optimization to first windows. *)
module Window = struct
  type t = {
    w : int;
    scatter : bool;
    adaptive : bool;
    seeds : int array;  (* per-thread scatter generator, at [slot thread] *)
    cur : int array;  (* per-thread live budget, at [slot thread] *)
  }

  (* Every thread writes its [cur] word after each window and its [seeds]
     word once per operation. Striding the per-thread words [Pad.words]
     apart keeps them on separate cache lines, so the writes of two
     domains do not false-share. Each word is owner-written only. *)
  let[@inline] slot thread = thread * Pad.words

  let create ?(scatter = true) ?(adaptive = true) w =
    if w < 1 then invalid_arg "Hoh.Window.create: w < 1";
    let n = Tm.Thread.max_threads * Pad.words in
    {
      w;
      scatter;
      adaptive;
      seeds = Array.init n (fun i -> (i / Pad.words * 7919) + 17);
      cur = Array.make n w;
    }

  let size t = t.w
  let adaptive t = t.adaptive
  let budget t ~thread = if t.adaptive then t.cur.(slot thread) else t.w

  let record t ~thread ~contended =
    if t.adaptive then begin
      let i = slot thread in
      let c = t.cur.(i) in
      t.cur.(i) <- (if contended then max 1 (c / 2) else min (4 * t.w) (2 * c))
    end

  let first_budget t ~thread =
    let b = budget t ~thread in
    if not t.scatter then b
    else begin
      let i = slot thread in
      let s = t.seeds.(i) in
      let s = s lxor (s lsl 13) in
      let s = s lxor (s lsr 7) in
      let s = s lxor (s lsl 17) in
      t.seeds.(i) <- s;
      1 + (s land max_int) mod b
    end
end

let[@inline] contention_aborts s =
  Tm.Stats.aborts_read s + Tm.Stats.aborts_lock s + Tm.Stats.aborts_serial s

let run ~rr ?site ?max_attempts ?(read_phase = false) ?window ?middle step =
  let reserved = ref None in
  (* The controller's feedback signal: the delta of this thread's
     contention-abort counters across the window transaction, plus whether
     it had to commit serially. Counters are thread-private, so the delta
     attributes exactly this window's aborts. A window flattened into an
     enclosing transaction ([attempts = 0], e.g. a fused service batch)
     reports the enclosing transaction's [serial] flag, which it did not
     escalate to, so it counts as clean: its reads join the enclosing
     read set whatever the budget, and a larger budget only saves
     reservation rounds. *)
  let stats =
    match window with
    | Some (w, _) when Window.adaptive w -> Some (Tm.Thread.stats ())
    | _ -> None
  in
  let rec loop () =
    let c0 = match stats with Some s -> contention_aborts s | None -> 0 in
    let res =
      Tm.atomic_stamped ?site ?max_attempts ~read_phase ?middle (fun txn ->
          rr.Rr_intf.register txn;
          let start =
            match !reserved with
            | None -> None
            | Some r -> rr.Rr_intf.get txn r
          in
          match step txn ~start with
          | Finish v ->
              rr.Rr_intf.release_all txn;
              Finish v
          | Hand_off r ->
              rr.Rr_intf.release_all txn;
              rr.Rr_intf.reserve txn r;
              Hand_off r)
    in
    (match (window, stats) with
    | Some (w, thread), Some s ->
        Window.record w ~thread
          ~contended:
            ((res.Tm.serial && res.Tm.attempts > 0)
            || contention_aborts s > c0)
    | _ -> ());
    match res.Tm.value with
    | Finish v ->
        reserved := None;
        (* The operation is over: TxSan checks the thread left no applied
           reservations behind and drops its carry/hint shadow. *)
        if San.enabled () then San.window_finish ~tid:(Tm.Thread.id ());
        (v, res.Tm.stamp)
    | Hand_off r ->
        reserved := Some r;
        (* The committed reservation becomes the carried pointer; until
           the next window's successful [get] it must not be dereferenced
           (TxSan's unchecked-carry rule). *)
        if San.enabled () then San.window_handoff ~tid:(Tm.Thread.id ());
        (* Between windows the operation holds only its reservation; this
           is the interleaving the paper's races live in, so make it a
           first-class scheduling point. *)
        Dst.point Dst.Hoh_handoff;
        loop ()
  in
  loop ()

let apply ~rr ?site ?max_attempts ?read_phase ?window ?middle step =
  fst (run ~rr ?site ?max_attempts ?read_phase ?window ?middle step)

let apply_stamped ~rr ?site ?max_attempts ?read_phase ?window ?middle step =
  run ~rr ?site ?max_attempts ?read_phase ?window ?middle step
