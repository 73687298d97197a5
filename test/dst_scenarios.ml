(* The three DESIGN.md concurrency bugs as deterministic-schedule-testing
   scenarios. Each builder re-arms the corresponding [Dst.Inject] flag (or
   clears it, for the control/fixed variants) and constructs fresh state,
   so every attempt of a search starts identically; the pinned schedules
   are the minimized traces the seeded searches produced, committed as
   regression inputs.

   Shared between the alcotest suite (test_dst.ml) and the capped
   [@dst-smoke] runner (dst_smoke.ml). *)

open Structs

(* ---- bug #1: serial-straddle torn snapshot ---- *)

(* A writer forced straight into the serial-irrevocable fallback
   ([max_attempts:0]) updates x then y; a reader snapshots both in one
   transaction. If [sample_rv] does not re-check the serial token after
   sampling the clock (the injected bug), the reader can sample the
   already-bumped serial [wv], accept the writer's first direct write as
   old enough, and commit the torn pair (1,0). *)
let straddle ~bug () =
  Dst.Inject.clear ();
  Dst.Inject.set_bug Dst.Inject.Snapshot_straddle bug;
  Tm.Thread.reset_ids_for_testing ();
  let x = Tm.tvar 0 and y = Tm.tvar 0 in
  let observed = ref (0, 0) in
  let writer () =
    Tm.Thread.with_registered (fun _ ->
        Tm.atomic ~max_attempts:0 (fun txn ->
            Tm.write txn x 1;
            Tm.write txn y 1))
  in
  let reader () =
    Tm.Thread.with_registered (fun _ ->
        observed := Tm.atomic (fun txn -> (Tm.read txn x, Tm.read txn y)))
  in
  {
    Dst.Explore.init = None;
    threads = [ writer; reader ];
    check =
      (fun () ->
        match !observed with
        | (0, 0) | (1, 1) -> ()
        | (a, b) -> failwith (Printf.sprintf "torn snapshot (%d,%d)" a b));
  }

(* ---- bug #2: read-only hazard publication race ---- *)

(* TMHP list, static window 1, immediate retire-scan. Thread A's hand-off
   transaction is paused between deciding to reserve a node and storing
   the hazard slot; thread B removes that node (retire + scan frees it:
   nothing protects it yet) and recycles it as the tail key 5. Without
   forced commit validation on the otherwise read-only reserving
   transaction (the injected bug), A's hand-off commits against a stale
   snapshot and A resumes its lookup of 4 from what is now the key-5
   tail -- returning false for a key that was never removed. *)
let ro_publication ~bug () =
  Dst.Inject.clear ();
  Dst.Inject.set_bug Dst.Inject.Ro_publication bug;
  Tm.Thread.reset_ids_for_testing ();
  let l =
    Hoh_list.create ~mode:Mode.Tmhp ~window:1 ~scatter:false ~adaptive:false
      ~hp_threshold:1 ()
  in
  let looked = ref true and removed = ref false and inserted = ref false in
  let init () =
    Tm.Thread.with_registered (fun thread ->
        List.iter (fun k -> ignore (Hoh_list.insert l ~thread k)) [ 1; 2; 3; 4 ])
  in
  let a () =
    Tm.Thread.with_registered (fun thread ->
        looked := Hoh_list.lookup l ~thread 4;
        Hoh_list.finalize_thread l ~thread)
  in
  let b () =
    Tm.Thread.with_registered (fun thread ->
        removed := Hoh_list.remove l ~thread 2;
        inserted := Hoh_list.insert l ~thread 5;
        Hoh_list.finalize_thread l ~thread)
  in
  {
    Dst.Explore.init = Some init;
    threads = [ a; b ];
    check =
      (fun () ->
        if not !removed then failwith "remove 2 failed";
        if not !inserted then failwith "insert 5 failed";
        if not !looked then failwith "lookup 4 = false (4 was never removed)";
        (match Hoh_list.check l with Ok () -> () | Error e -> failwith e);
        let got = Hoh_list.to_list l in
        if got <> [ 1; 3; 4; 5 ] then
          failwith ("contents " ^ String.concat ";" (List.map string_of_int got)));
  }

(* ---- bug #3: stale skiplist hint accepted after recycling ---- *)

(* Precise RR-FA skiplist, static window 1, seed 128 chosen so the prefill
   towers are 10:1, 20:2, 30:1, 40:2 and the recycled node re-enters at
   height 1. Thread A removes 40 and pauses at the hand-off holding a
   reservation on 30, with preds[1] still pointing at node 20. Thread B
   removes 20 (freed immediately: precise reclamation) and inserts 25,
   which recycles the node under a new key and a shorter tower. A
   resumes; checking only [deleted] on the hint (the injected bug)
   accepts the recycled node as a level-1 predecessor and the level-1
   unlink walks off the level-1 list entirely. *)
let stale_hint ~bug () =
  Dst.Inject.clear ();
  Dst.Inject.set_bug Dst.Inject.Stale_hint bug;
  Tm.Thread.reset_ids_for_testing ();
  let sl =
    Hoh_skiplist.create
      ~mode:(Mode.Rr_kind (module Rr.Fa))
      ~window:1 ~scatter:false ~adaptive:false ~seed:128 ()
  in
  let r40 = ref false and r20 = ref false and i25 = ref false in
  let init () =
    Tm.Thread.with_registered (fun thread ->
        List.iter
          (fun k -> ignore (Hoh_skiplist.insert sl ~thread k))
          [ 10; 20; 30; 40 ])
  in
  let a () =
    Tm.Thread.with_registered (fun thread ->
        r40 := Hoh_skiplist.remove sl ~thread 40)
  in
  let b () =
    Tm.Thread.with_registered (fun thread ->
        r20 := Hoh_skiplist.remove sl ~thread 20;
        i25 := Hoh_skiplist.insert sl ~thread 25)
  in
  {
    Dst.Explore.init = Some init;
    threads = [ a; b ];
    check =
      (fun () ->
        if not (!r40 && !r20 && !i25) then failwith "an operation failed";
        (match Hoh_skiplist.check sl with Ok () -> () | Error e -> failwith e);
        let got = Hoh_skiplist.to_list sl in
          if got <> [ 10; 25; 30 ] then
            failwith
              ("contents " ^ String.concat ";" (List.map string_of_int got)));
  }

(* ---- timestamp extension under a concurrent commit ---- *)

(* No injected bug here: these scenarios pin the extension protocol's
   behavior. A reader snapshots x then y while a writer commits between
   the two reads. In [extend_success] the writer touches only y, so the
   reader's stale read of y revalidates its intact read set {x}, extends
   rv, and completes in a single attempt; in [extend_fail] the writer
   updates both, the revalidation finds x changed, and the reader must
   abort and retry exactly as it did before extensions existed.

   [expect] selects the check:
   - [`Opaque]   opacity only — must hold on {e every} schedule; the
                 searches over these are the oracle runs proving the
                 extension never lets a torn pair commit;
   - [`Probe]    inverted: {e fail} when the extension fired — used once
                 to discover the pinned schedules below (the minimized
                 "failure" is precisely a schedule that drives the
                 protocol through the extension path);
   - [`Strong]   the full deterministic claim, for pinned replays. *)
let extend_scenario ~writes_x ~expect () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let x = Tm.tvar 0 and y = Tm.tvar 0 in
  let observed = ref (-1, -1) in
  let attempts = ref 0 and extensions = ref 0 and ext_fails = ref 0 in
  let writer () =
    Tm.Thread.with_registered (fun _ ->
        Tm.atomic (fun txn ->
            if writes_x then Tm.write txn x 1;
            Tm.write txn y 1))
  in
  let reader () =
    Tm.Thread.with_registered (fun _ ->
        let st = Tm.Thread.stats () in
        Tm.Stats.reset st;
        let r =
          Tm.atomic_stamped (fun txn ->
              let vx = Tm.read txn x in
              let vy = Tm.read txn y in
              (vx, vy))
        in
        observed := r.Tm.value;
        attempts := r.Tm.attempts;
        extensions := Tm.Stats.extensions st;
        ext_fails := Tm.Stats.ext_fails st)
  in
  let opaque () =
    match (writes_x, !observed) with
    | _, ((0, 0) | (1, 1)) | false, (0, 1) -> ()
    | _, (a, b) -> failwith (Printf.sprintf "torn snapshot (%d,%d)" a b)
  in
  {
    Dst.Explore.init = None;
    threads = [ writer; reader ];
    check =
      (fun () ->
        opaque ();
        match expect with
        | `Opaque -> ()
        | `Probe ->
            if (if writes_x then !ext_fails else !extensions) > 0 then
              failwith "extension path taken"
        | `Strong ->
            if writes_x then begin
              if !observed <> (1, 1) then
                failwith "writer did not commit mid-snapshot";
              if !attempts <> 2 then
                failwith (Printf.sprintf "%d attempts, wanted 2" !attempts);
              if !ext_fails < 1 then failwith "no failed extension recorded"
            end
            else begin
              if !observed <> (0, 1) then
                failwith "writer did not commit mid-snapshot";
              if !attempts <> 1 then
                failwith
                  (Printf.sprintf "%d attempts (aborted instead of extending)"
                     !attempts);
              if !extensions < 1 then failwith "no extension recorded"
            end);
  }

let extend_success ~expect = extend_scenario ~writes_x:false ~expect
let extend_fail ~expect = extend_scenario ~writes_x:true ~expect

(* ---- the read-phase hint under a paused committer ---- *)

(* A read-phase reader that hits a locked word must wait the (bounded)
   writeback section out rather than abort: on {e every} schedule —
   including those pausing the writer between its lock acquisition and
   writeback — the reader completes with zero [Lock_busy] aborts and
   never escalates to the serial fallback. *)
let read_phase_wait () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let x = Tm.tvar 0 in
  let seen = ref (-1) and lock_aborts = ref 0 and serial = ref true in
  let writer () =
    Tm.Thread.with_registered (fun _ ->
        Tm.atomic (fun txn -> Tm.write txn x 1))
  in
  let reader () =
    Tm.Thread.with_registered (fun _ ->
        let st = Tm.Thread.stats () in
        Tm.Stats.reset st;
        let r =
          Tm.atomic_stamped ~max_attempts:1 ~read_phase:true (fun txn ->
              Tm.read txn x)
        in
        seen := r.Tm.value;
        serial := r.Tm.serial;
        lock_aborts := Tm.Stats.aborts_lock st)
  in
  {
    Dst.Explore.init = None;
    threads = [ writer; reader ];
    check =
      (fun () ->
        if !seen <> 0 && !seen <> 1 then
          failwith (Printf.sprintf "read %d" !seen);
        if !lock_aborts > 0 then
          failwith
            (Printf.sprintf "%d Lock_busy aborts under read_phase"
               !lock_aborts);
        if !serial then failwith "read-phase transaction went serial");
  }

(* ---- the middle path: lock-excluded retries between the rungs ---- *)

(* Two incrementers of one counter, one speculative attempt each
   ([max_attempts:1]), sharing a middle-path lock. The loser's retry runs
   under the lock, excluded only from other middle-path transactions, and
   commits without ever reaching the serial rung.

   [expect] selects the check:
   - [`Safe]   must hold on {e every} schedule: both increments commit and
               the middle lock is released;
   - [`Probe]  inverted — fail when the middle path fired; used once to
               discover the pinned schedule below;
   - [`Strong] the deterministic claim for pinned replays: the middle
               path absorbed the contention (no serial fallback, no
               Lock_busy storm under the lock). *)
let middle_exclusion ~expect () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let x = Tm.tvar 0 in
  let m = Tm.Middle.create () in
  let mid = ref 0 and serial = ref 0 and locky = ref 0 in
  let incr_thread () =
    Tm.Thread.with_registered (fun _ ->
        let st = Tm.Thread.stats () in
        Tm.Stats.reset st;
        Tm.atomic ~max_attempts:1 ~middle:m (fun txn ->
            Tm.write txn x (Tm.read txn x + 1));
        mid := !mid + Tm.Stats.fallbacks_middle st;
        serial := !serial + Tm.Stats.fallbacks_serial st;
        locky := !locky + Tm.Stats.aborts_lock st)
  in
  {
    Dst.Explore.init = None;
    threads = [ incr_thread; incr_thread ];
    check =
      (fun () ->
        let v = Tm.peek x in
        if v <> 2 then failwith (Printf.sprintf "x = %d, wanted 2" v);
        if Tm.Middle.locked m then failwith "middle lock still held";
        match expect with
        | `Safe -> ()
        | `Probe -> if !mid > 0 then failwith "middle path taken"
        | `Strong ->
            if !mid < 1 then failwith "middle path never taken";
            if !serial > 0 then
              failwith
                (Printf.sprintf "%d serial fallbacks despite the middle path"
                   !serial);
            if !locky > 2 then
              failwith (Printf.sprintf "Lock_busy storm (%d aborts)" !locky));
  }

(* ---- adaptive window: multiplicative shrink on a contended commit ---- *)

(* Adaptive list (the library default), window 1, so the per-thread
   budget ranges over 1..4: thread A's lookups double it on each clean
   window commit until it sits at the ceiling; thread B's scripted updates
   conflict with one of A's windows, and the contended commit must halve
   A's budget. Both logs feed the stamp-order serializability oracle, so
   the adapted windows also prove they linearize correctly under fire.

   [expect]: [`Safe] (every schedule: structure invariants + the
   serializability oracle), [`Probe] (inverted — fail once A's final
   budget sits below the ceiling; the discovery run), [`Strong] (pinned:
   A paid a contention abort and its budget was halved). *)
let window_shrink ~expect () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let l =
    Hoh_list.create
      ~mode:(Mode.Rr_kind (module Rr.V))
      ~window:1 ~scatter:false ()
  in
  let initial = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let init () =
    Tm.Thread.with_registered (fun thread ->
        List.iter (fun k -> ignore (Hoh_list.insert l ~thread k)) initial)
  in
  let logs = Array.make 2 [] in
  let a_thread = ref 0 and a_contended = ref 0 in
  let entry op key (result, stamp) =
    { Harness.Serial_check.op; key; result; earliest = stamp; stamp }
  in
  let scripted i script () =
    Tm.Thread.with_registered (fun thread ->
        let st = Tm.Thread.stats () in
        Tm.Stats.reset st;
        logs.(i) <-
          List.map
            (fun (op, key) ->
              match op with
              | `I ->
                  entry Harness.Workload.Insert key
                    (Hoh_list.insert_s l ~thread key)
              | `R ->
                  entry Harness.Workload.Remove key
                    (Hoh_list.remove_s l ~thread key)
              | `L ->
                  entry Harness.Workload.Lookup key
                    (Hoh_list.lookup_s l ~thread key))
            script;
        if i = 0 then begin
          a_thread := thread;
          a_contended :=
            Tm.Stats.aborts_read st + Tm.Stats.aborts_lock st
            + Tm.Stats.aborts_serial st
        end)
  in
  let a = scripted 0 [ (`L, 8); (`L, 8) ] in
  let b = scripted 1 [ (`R, 6); (`I, 9) ] in
  {
    Dst.Explore.init = Some init;
    threads = [ a; b ];
    check =
      (fun () ->
        (match Hoh_list.check l with Ok () -> () | Error e -> failwith e);
        (match
           Harness.Serial_check.check ~initial
             [ Array.of_list logs.(0); Array.of_list logs.(1) ]
         with
        | Ok () -> ()
        | Error e -> failwith e);
        let budget = Hoh_list.budget l ~thread:!a_thread in
        match expect with
        | `Safe -> ()
        | `Probe -> if budget < 4 then failwith "window budget shrank"
        | `Strong ->
            if !a_contended < 1 then failwith "no contention abort on A";
            if budget >= 4 then
              failwith
                (Printf.sprintf "window budget %d did not shrink on abort"
                   budget));
  }

(* ---- pinned minimized schedules and documented search budgets ---- *)

(* bug #1, random search (budget 500, <= 2000 runs; found at seed 6 in 19
   runs): reader pauses at the clock sample, writer runs its serial
   commit past the first direct write, reader resumes. *)
let sched_bug1 = [| 1; 0; 0; 1; 1 |]

(* bug #2, PCT depth 2 (budget 300, <= 6000 runs; found at seed 18 in 79
   runs): A walks to its second hand-off and pauses at the hazard
   publication; B runs remove 2 + insert 5 to completion. *)
let sched_bug2 = Array.concat [ Array.make 10 0; Array.make 42 1 ]

(* bug #3, PCT depth 2 (budget 400, <= 6000 runs; found at seed 29 in 247
   runs): A walks to the hand-off reserving node 30; B runs remove 20 +
   insert 25 to completion; A's resumed level-1 unlink trips. *)
let sched_bug3 = Array.concat [ Array.make 53 0; Array.make 124 1 ]

(* extension success, random probe search over [extend_success ~expect:`Probe]
   (budget 300, <= 4000 runs; found at seed 24 in 34 runs): the reader
   runs through its clock sample and the read of x, the exhausted
   schedule hands the rest of the run to the writer (lowest-numbered
   runnable thread), which commits y; the reader's resumed read of y is
   stale, revalidates {x}, and extends. *)
let sched_extend_ok = [| 1; 1 |]

(* extension failure, random probe search over [extend_fail ~expect:`Probe]
   (budget 300, <= 4000 runs; found at seed 43 in 55 runs): same shape
   one yield deeper; the writer's commit covers x as well, so the
   reader's revalidation finds its read set changed, the extension
   fails, and the second attempt snapshots (1,1). *)
let sched_extend_fail = [| 1; 1; 1 |]

(* middle path, random probe search over [middle_exclusion ~expect:`Probe]
   (budget 300, <= 2000 runs; found at seed 1 in 22 runs): the second
   incrementer reads x, the first runs to commit under it, the second's
   validation fails and its retry acquires the uncontended middle lock
   and commits — one middle fallback, zero serial. *)
let sched_middle = [| 1; 1; 1; 0; 0; 0; 1; 1; 1; 1; 1 |]

(* window shrink, PCT depth 2 over [window_shrink ~expect:`Probe] (budget
   400, <= 6000 runs; found at seed 1155 in 1252 runs): A runs both
   lookups until its final window is in flight with its budget at the
   ceiling, then B's remove 6 + insert 9 commit under it; the contended
   commit halves A's budget. *)
let sched_window = Array.concat [ Array.make 45 0; Array.make 40 1 ]
