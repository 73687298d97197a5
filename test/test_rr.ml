(* Tests for the six revocable-reservation implementations against the
   paper's Listing-1 specification, plus the hand-over-hand engine. *)

let checkb = Alcotest.(check bool)
let check_opt = Alcotest.(check (option int))

let impls = Rr.all

let strict_impls =
  List.filter
    (fun (_, m) ->
      let module M = (val m : Rr.S) in
      M.strict)
    impls

let relaxed_impls =
  List.filter
    (fun (_, m) ->
      let module M = (val m : Rr.S) in
      not M.strict)
    impls

(* Instantiate an implementation over [int] references. With the identity
   hash and distinct small references there are no collisions, so even the
   relaxed implementations should match the sequential specification
   exactly in single-thread use. *)
let make ?config ?(hash = fun (r : int) -> r) m =
  Rr.instantiate m ?config ~hash ~equal:Int.equal ()

let in_txn f = Tm.atomic (fun txn -> f txn)

let seq_case name m f =
  Alcotest.test_case name `Quick (fun () ->
      Tm.Thread.with_registered (fun _ -> f m))

(* ---- single-thread behaviour, every implementation ---- *)

let test_reserve_get_release m =
  let rr = make m in
  in_txn (fun txn ->
      rr.Rr.register txn;
      check_opt "empty" None (rr.Rr.get txn 5);
      rr.Rr.reserve txn 5;
      check_opt "reserved" (Some 5) (rr.Rr.get txn 5);
      check_opt "other ref absent" None (rr.Rr.get txn 6);
      rr.Rr.release txn 5;
      check_opt "released" None (rr.Rr.get txn 5))

let test_persists_across_txns m =
  let rr = make m in
  in_txn (fun txn ->
      rr.Rr.register txn;
      rr.Rr.reserve txn 9);
  in_txn (fun txn -> check_opt "survives commit" (Some 9) (rr.Rr.get txn 9))

let test_rollback_on_abort m =
  let rr = make m in
  let attempt = ref 0 in
  Tm.atomic ~max_attempts:10 (fun txn ->
      rr.Rr.register txn;
      incr attempt;
      rr.Rr.reserve txn 3;
      if !attempt = 1 then raise (Tm.Abort Tm.Read_invalid));
  in_txn (fun txn ->
      check_opt "reservation from committed attempt" (Some 3) (rr.Rr.get txn 3));
  (try
     Tm.atomic (fun txn ->
         rr.Rr.release txn 3;
         failwith "user abort")
   with Failure _ -> ());
  in_txn (fun txn ->
      check_opt "release rolled back with its txn" (Some 3) (rr.Rr.get txn 3))

let test_revoke_self m =
  let rr = make m in
  in_txn (fun txn ->
      rr.Rr.register txn;
      rr.Rr.reserve txn 7);
  in_txn (fun txn -> rr.Rr.revoke txn 7);
  in_txn (fun txn -> check_opt "revoked" None (rr.Rr.get txn 7))

let test_reserve_idempotent m =
  let rr = make m in
  in_txn (fun txn ->
      rr.Rr.register txn;
      rr.Rr.reserve txn 4;
      rr.Rr.reserve txn 4;
      check_opt "still reserved" (Some 4) (rr.Rr.get txn 4));
  in_txn (fun txn ->
      rr.Rr.release txn 4;
      check_opt "one release suffices" None (rr.Rr.get txn 4))

let test_capacity m =
  let rr = make m in
  in_txn (fun txn ->
      rr.Rr.register txn;
      rr.Rr.reserve txn 1;
      (* default capacity is one reservation per thread, as in the paper *)
      checkb "full set rejected" true
        (match rr.Rr.reserve txn 2 with
        | () -> false
        | exception Invalid_argument _ -> true))

let test_multi_slot m =
  let config = { Rr.Config.default with slots_per_thread = 3 } in
  let rr = make ~config m in
  in_txn (fun txn ->
      rr.Rr.register txn;
      rr.Rr.reserve txn 1;
      rr.Rr.reserve txn 2;
      rr.Rr.reserve txn 3;
      check_opt "slot 1" (Some 1) (rr.Rr.get txn 1);
      check_opt "slot 2" (Some 2) (rr.Rr.get txn 2);
      check_opt "slot 3" (Some 3) (rr.Rr.get txn 3));
  in_txn (fun txn -> rr.Rr.revoke txn 2);
  in_txn (fun txn ->
      check_opt "1 untouched" (Some 1) (rr.Rr.get txn 1);
      check_opt "2 revoked" None (rr.Rr.get txn 2);
      check_opt "3 untouched" (Some 3) (rr.Rr.get txn 3);
      rr.Rr.release_all txn);
  in_txn (fun txn ->
      check_opt "released all" None (rr.Rr.get txn 1);
      check_opt "released all" None (rr.Rr.get txn 3))

let test_release_absent_noop m =
  let rr = make m in
  in_txn (fun txn ->
      rr.Rr.register txn;
      rr.Rr.release txn 42;
      rr.Rr.release_all txn;
      check_opt "still empty" None (rr.Rr.get txn 42))

(* ---- cross-thread behaviour ---- *)

let test_per_thread_sets m =
  Test_util.Worker.with_workers 2 (fun ws ->
      let w1 = List.nth ws 0 and w2 = List.nth ws 1 in
      let rr = make m in
      Test_util.Worker.run w1 (fun () ->
          in_txn (fun txn ->
              rr.Rr.register txn;
              rr.Rr.reserve txn 8));
      let seen_by_2 =
        Test_util.Worker.run w2 (fun () ->
            in_txn (fun txn ->
                rr.Rr.register txn;
                rr.Rr.get txn 8))
      in
      check_opt "sets are per-thread" None seen_by_2;
      let seen_by_1 =
        Test_util.Worker.run w1 (fun () -> in_txn (fun txn -> rr.Rr.get txn 8))
      in
      check_opt "owner still holds" (Some 8) seen_by_1)

let test_cross_thread_revoke m =
  Test_util.Worker.with_workers 2 (fun ws ->
      let w1 = List.nth ws 0 and w2 = List.nth ws 1 in
      let rr = make m in
      Test_util.Worker.run w1 (fun () ->
          in_txn (fun txn ->
              rr.Rr.register txn;
              rr.Rr.reserve txn 11));
      Test_util.Worker.run w2 (fun () ->
          in_txn (fun txn ->
              rr.Rr.register txn;
              rr.Rr.revoke txn 11));
      let seen =
        Test_util.Worker.run w1 (fun () -> in_txn (fun txn -> rr.Rr.get txn 11))
      in
      check_opt "revoked by another thread" None seen)

(* Strict implementations guarantee no spurious invalidation even when all
   references hash to the same bucket. *)
let test_strict_no_spurious m =
  Test_util.Worker.with_workers 2 (fun ws ->
      let w1 = List.nth ws 0 and w2 = List.nth ws 1 in
      let rr = make ~hash:(fun _ -> 0) m in
      Test_util.Worker.run w1 (fun () ->
          in_txn (fun txn ->
              rr.Rr.register txn;
              rr.Rr.reserve txn 1));
      Test_util.Worker.run w2 (fun () ->
          in_txn (fun txn ->
              rr.Rr.register txn;
              rr.Rr.reserve txn 2));
      Test_util.Worker.run w2 (fun () -> in_txn (fun txn -> rr.Rr.revoke txn 2));
      let seen =
        Test_util.Worker.run w1 (fun () -> in_txn (fun txn -> rr.Rr.get txn 1))
      in
      check_opt "strict: unrelated colliding ops do not invalidate" (Some 1)
        seen)

(* Relaxed implementations may drop reservations spuriously but must never
   return a reference that was actually revoked. *)
let test_relaxed_sound_under_collision m =
  Test_util.Worker.with_workers 2 (fun ws ->
      let w1 = List.nth ws 0 and w2 = List.nth ws 1 in
      let rr = make ~hash:(fun _ -> 0) m in
      Test_util.Worker.run w1 (fun () ->
          in_txn (fun txn ->
              rr.Rr.register txn;
              rr.Rr.reserve txn 1));
      Test_util.Worker.run w2 (fun () ->
          in_txn (fun txn ->
              rr.Rr.register txn;
              rr.Rr.revoke txn 1));
      let seen =
        Test_util.Worker.run w1 (fun () -> in_txn (fun txn -> rr.Rr.get txn 1))
      in
      check_opt "actually-revoked is never returned" None seen)

let test_xo_exclusive () =
  Test_util.Worker.with_workers 2 (fun ws ->
      let w1 = List.nth ws 0 and w2 = List.nth ws 1 in
      let rr = make (module Rr.Xo : Rr.S) in
      Test_util.Worker.run w1 (fun () ->
          in_txn (fun txn ->
              rr.Rr.register txn;
              rr.Rr.reserve txn 5));
      Test_util.Worker.run w2 (fun () ->
          in_txn (fun txn ->
              rr.Rr.register txn;
              rr.Rr.reserve txn 5));
      let w1_sees =
        Test_util.Worker.run w1 (fun () -> in_txn (fun txn -> rr.Rr.get txn 5))
      in
      let w2_sees =
        Test_util.Worker.run w2 (fun () -> in_txn (fun txn -> rr.Rr.get txn 5))
      in
      check_opt "second reserver steals exclusive ownership" None w1_sees;
      check_opt "latest reserver holds" (Some 5) w2_sees)

let test_so_shared () =
  Test_util.Worker.with_workers 2 (fun ws ->
      let w1 = List.nth ws 0 and w2 = List.nth ws 1 in
      (* one way per possible thread id: sharing always succeeds *)
      let config = { Rr.Config.default with assoc = Tm.Thread.max_threads } in
      let rr = make ~config (module Rr.So : Rr.S) in
      Test_util.Worker.run w1 (fun () ->
          in_txn (fun txn ->
              rr.Rr.register txn;
              rr.Rr.reserve txn 5));
      Test_util.Worker.run w2 (fun () ->
          in_txn (fun txn ->
              rr.Rr.register txn;
              rr.Rr.reserve txn 5));
      let w1_sees =
        Test_util.Worker.run w1 (fun () -> in_txn (fun txn -> rr.Rr.get txn 5))
      in
      check_opt "shared ownership tolerates a second reserver" (Some 5) w1_sees;
      Test_util.Worker.run w2 (fun () -> in_txn (fun txn -> rr.Rr.revoke txn 5));
      let w1_after =
        Test_util.Worker.run w1 (fun () -> in_txn (fun txn -> rr.Rr.get txn 5))
      in
      check_opt "revoke reaches every way" None w1_after)

let test_v_concurrent_holders () =
  Test_util.Worker.with_workers 2 (fun ws ->
      let rr = make (module Rr.V : Rr.S) in
      List.iter
        (fun w ->
          Test_util.Worker.run w (fun () ->
              in_txn (fun txn ->
                  rr.Rr.register txn;
                  rr.Rr.reserve txn 5)))
        ws;
      let both =
        List.map
          (fun w ->
            Test_util.Worker.run w (fun () ->
                in_txn (fun txn -> rr.Rr.get txn 5)))
          ws
      in
      Alcotest.(check (list (option int)))
        "any number of threads may hold the same reference"
        [ Some 5; Some 5 ] both)

(* ---- model-based property: exact conformance to Listing 1 ---- *)

type spec_op = Reserve of int | Release of int | Get of int | Revoke of int

let gen_ops =
  let open QCheck.Gen in
  let ref_ = int_bound 4 in
  list_size (int_bound 40)
    (oneof
       [
         map (fun r -> Reserve r) ref_;
         map (fun r -> Release r) ref_;
         map (fun r -> Get r) ref_;
         map (fun r -> Revoke r) ref_;
       ])

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Reserve r -> Printf.sprintf "res %d" r
         | Release r -> Printf.sprintf "rel %d" r
         | Get r -> Printf.sprintf "get %d" r
         | Revoke r -> Printf.sprintf "rev %d" r)
       ops)

let qcheck_spec_conformance ?(config = { Rr.Config.default with slots_per_thread = 5 })
    ?(suffix = "") (name, m) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s matches Listing 1 (single thread)%s" name suffix)
    ~count:150
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      Tm.Thread.with_registered (fun tid ->
          let rr = make ~config m in
          let model = Rr.Spec_model.create ~equal:Int.equal () in
          List.for_all
            (fun op ->
              Tm.atomic (fun txn ->
                  rr.Rr.register txn;
                  match op with
                  | Reserve r ->
                      rr.Rr.reserve txn r;
                      Rr.Spec_model.reserve model ~thread:tid r;
                      true
                  | Release r ->
                      rr.Rr.release txn r;
                      Rr.Spec_model.release model ~thread:tid r;
                      true
                  | Revoke r ->
                      rr.Rr.revoke txn r;
                      Rr.Spec_model.revoke model r;
                      true
                  | Get r ->
                      rr.Rr.get txn r = Rr.Spec_model.get model ~thread:tid r))
            ops))

(* ---- concurrent model-based stress ----

   Workers run random Reserve/Release/Get/Revoke operations, each in its
   own stamped transaction; afterwards the log is replayed in commit-stamp
   order against the Listing-1 model. Strict implementations must agree
   with the model on every Get; relaxed implementations may spuriously
   return None but must never return a reference the model says the thread
   does not hold. *)

type stress_entry = {
  s_thread : int;
  s_op : spec_op;
  s_got : int option;  (* Get result; meaningless for other ops *)
  s_stamp : int;
  s_writer : bool;
}

let concurrent_stress_test (name, m) =
  Alcotest.test_case (name ^ " concurrent spec stress") `Slow (fun () ->
      Tm.Thread.with_registered (fun _ ->
          let config = { Rr.Config.default with slots_per_thread = 3 } in
          let rr = make ~config m in
          let n_workers = 4 in
          let barrier = Atomic.make n_workers in
          let worker w () =
            Tm.Thread.with_registered (fun tid ->
                let rng = Test_util.Prng.create (w * 77) in
                Atomic.decr barrier;
                while Atomic.get barrier > 0 do
                  Domain.cpu_relax ()
                done;
                let log = ref [] in
                for _ = 1 to 1500 do
                  let r = Test_util.Prng.int rng 6 in
                  let op =
                    match Test_util.Prng.int rng 8 with
                    | 0 | 1 -> Reserve r
                    | 2 -> Release r
                    | 3 -> Revoke r
                    | _ -> Get r
                  in
                  let res =
                    Tm.atomic_stamped (fun txn ->
                        rr.Rr.register txn;
                        match op with
                        | Reserve r -> (
                            (* the set may be full: empty it and retry,
                               mirrored in the model replay below *)
                            match rr.Rr.reserve txn r with
                            | () -> (None, true)
                            | exception Invalid_argument _ ->
                                rr.Rr.release_all txn;
                                rr.Rr.reserve txn r;
                                (None, true))
                        | Release r ->
                            rr.Rr.release txn r;
                            (None, true)
                        | Revoke r ->
                            rr.Rr.revoke txn r;
                            (None, true)
                        | Get r -> (rr.Rr.get txn r, false))
                  in
                  let got, writer_intent = res.Tm.value in
                  log :=
                    {
                      s_thread = tid;
                      s_op = op;
                      s_got = got;
                      s_stamp = res.Tm.stamp;
                      s_writer = writer_intent && not res.Tm.read_only;
                    }
                    :: !log
                done;
                List.rev !log)
          in
          let logs =
            List.init n_workers (fun w -> Domain.spawn (worker w))
            |> List.map Domain.join
          in
          (* NB: reserve-when-full released the whole set first; model that
             by replaying release_all before the reserve. We conservatively
             re-run the same decision: the model's set size tells us whether
             the implementation would have overflowed. *)
          let all =
            List.concat logs
            |> List.stable_sort (fun a b ->
                   match compare a.s_stamp b.s_stamp with
                   | 0 -> compare b.s_writer a.s_writer
                   | c -> c)
          in
          let module M = (val m : Rr.S) in
          let model = Rr.Spec_model.create ~equal:Int.equal () in
          List.iter
            (fun e ->
              match e.s_op with
              | Reserve r ->
                  if
                    Rr.Spec_model.get model ~thread:e.s_thread r = None
                    && Rr.Spec_model.count model ~thread:e.s_thread >= 3
                  then Rr.Spec_model.release_all model ~thread:e.s_thread;
                  Rr.Spec_model.reserve model ~thread:e.s_thread r
              | Release r -> Rr.Spec_model.release model ~thread:e.s_thread r
              | Revoke r -> Rr.Spec_model.revoke model r
              | Get r ->
                  let expected = Rr.Spec_model.get model ~thread:e.s_thread r in
                  if M.strict then begin
                    if e.s_got <> expected then
                      Alcotest.failf
                        "%s: strict get %d at stamp %d returned %s, model                          says %s"
                        name r e.s_stamp
                        (match e.s_got with
                        | Some v -> string_of_int v
                        | None -> "nil")
                        (match expected with
                        | Some v -> string_of_int v
                        | None -> "nil")
                  end
                  else if e.s_got <> None && e.s_got <> expected then
                    Alcotest.failf
                      "%s: relaxed get %d at stamp %d returned a reference                        the model does not hold"
                      name r e.s_stamp)
            all))

(* ---- the hand-over-hand engine ---- *)

let test_hoh_single_finish () =
  Tm.Thread.with_registered (fun _ ->
      let rr = make (module Rr.Fa : Rr.S) in
      let calls = ref 0 in
      let v, stamp =
        Rr.Hoh.apply_stamped ~rr (fun _txn ~start ->
            incr calls;
            checkb "first txn starts fresh" true (start = None);
            Rr.Hoh.Finish 42)
      in
      Alcotest.(check int) "value" 42 v;
      Alcotest.(check int) "one transaction" 1 !calls;
      checkb "stamp set" true (stamp >= 0))

let test_hoh_chain () =
  Tm.Thread.with_registered (fun _ ->
      let rr = make (module Rr.Fa : Rr.S) in
      let starts = ref [] in
      let v =
        Rr.Hoh.apply ~rr (fun _txn ~start ->
            starts := start :: !starts;
            match start with
            | None -> Rr.Hoh.Hand_off 1
            | Some 1 -> Rr.Hoh.Hand_off 2
            | Some 2 -> Rr.Hoh.Hand_off 3
            | Some n -> Rr.Hoh.Finish n)
      in
      Alcotest.(check int) "chained to the end" 3 v;
      Alcotest.(check (list (option int)))
        "each window resumes from its reservation"
        [ None; Some 1; Some 2; Some 3 ]
        (List.rev !starts);
      in_txn (fun txn ->
          check_opt "released at finish" None (rr.Rr.get txn 3)))

let test_hoh_revoked_resume () =
  Test_util.Worker.with_workers 1 (fun ws ->
      let w2 = List.nth ws 0 in
      Tm.Thread.with_registered (fun _ ->
          let rr = make (module Rr.Fa : Rr.S) in
          let revoked_once = ref false in
          let v =
            Rr.Hoh.apply ~rr (fun _txn ~start ->
                match start with
                | None when not !revoked_once -> Rr.Hoh.Hand_off 1
                | Some 1 ->
                    if not !revoked_once then begin
                      (* revoke from another thread, then hand off again:
                         the next window must find its reservation gone *)
                      Test_util.Worker.run w2 (fun () ->
                          in_txn (fun txn ->
                              rr.Rr.register txn;
                              rr.Rr.revoke txn 1));
                      revoked_once := true;
                      Rr.Hoh.Hand_off 1
                    end
                    else Rr.Hoh.Finish (-1)
                | None -> Rr.Hoh.Finish 99 (* restart detected *)
                | Some _ -> Rr.Hoh.Finish (-2))
          in
          Alcotest.(check int) "restarted from scratch after revoke" 99 v))

let test_window_scatter () =
  let w = Rr.Hoh.Window.create ~scatter:true 8 in
  Alcotest.(check int) "size" 8 (Rr.Hoh.Window.size w);
  for _ = 1 to 100 do
    let b = Rr.Hoh.Window.first_budget w ~thread:3 in
    checkb "scattered budget in [1..W]" true (b >= 1 && b <= 8)
  done;
  let seen = Hashtbl.create 8 in
  for _ = 1 to 200 do
    Hashtbl.replace seen (Rr.Hoh.Window.first_budget w ~thread:0) ()
  done;
  checkb "budgets vary" true (Hashtbl.length seen > 1)

let test_window_no_scatter () =
  let w = Rr.Hoh.Window.create ~scatter:false 8 in
  for t = 0 to 3 do
    Alcotest.(check int) "always W" 8 (Rr.Hoh.Window.first_budget w ~thread:t)
  done

let test_window_invalid () =
  Alcotest.check_raises "w must be positive"
    (Invalid_argument "Hoh.Window.create: w < 1") (fun () ->
      ignore (Rr.Hoh.Window.create 0))

let test_window_adaptive () =
  let module W = Rr.Hoh.Window in
  let w = W.create 8 in
  checkb "adaptive by default" true (W.adaptive w);
  Alcotest.(check int) "static size unchanged" 8 (W.size w);
  Alcotest.(check int) "starts at w" 8 (W.budget w ~thread:0);
  (* MIMD: clean windows double the live budget, up to 4w. *)
  W.record w ~thread:0 ~contended:false;
  Alcotest.(check int) "doubles on clean" 16 (W.budget w ~thread:0);
  W.record w ~thread:0 ~contended:false;
  W.record w ~thread:0 ~contended:false;
  Alcotest.(check int) "capped at 4w" 32 (W.budget w ~thread:0);
  (* ...and contended windows halve it, down to 1. *)
  W.record w ~thread:0 ~contended:true;
  Alcotest.(check int) "halves on contention" 16 (W.budget w ~thread:0);
  for _ = 1 to 10 do
    W.record w ~thread:0 ~contended:true
  done;
  Alcotest.(check int) "floored at 1" 1 (W.budget w ~thread:0);
  (* Controllers are per-thread. *)
  Alcotest.(check int) "other threads unaffected" 8 (W.budget w ~thread:1);
  (* First-window scatter follows the live budget. *)
  W.record w ~thread:2 ~contended:false;
  for _ = 1 to 50 do
    let b = W.first_budget w ~thread:2 in
    checkb "scatter within live budget" true (b >= 1 && b <= 16)
  done;
  (* Liveness: no record sequence latches the controller. A budget
     driven to the floor by contention climbs back to 4w on clean
     windows, in log2(4w) steps. *)
  let l = W.create 8 in
  for _ = 1 to 20 do
    W.record l ~thread:0 ~contended:true
  done;
  Alcotest.(check int) "driven to 1" 1 (W.budget l ~thread:0);
  for _ = 1 to 5 do
    W.record l ~thread:0 ~contended:false
  done;
  Alcotest.(check int) "back to 4w" 32 (W.budget l ~thread:0);
  (* The paper's static W ignores feedback in both directions. *)
  let s = W.create ~scatter:false ~adaptive:false 8 in
  checkb "static on request" false (W.adaptive s);
  W.record s ~thread:0 ~contended:false;
  Alcotest.(check int) "static budget fixed on clean" 8 (W.budget s ~thread:0);
  W.record s ~thread:0 ~contended:true;
  Alcotest.(check int) "static budget fixed on contention" 8
    (W.budget s ~thread:0);
  Alcotest.(check int) "static first window" 8 (W.first_budget s ~thread:0)

let test_spec_model () =
  let m = Rr.Spec_model.create ~equal:Int.equal () in
  Rr.Spec_model.reserve m ~thread:0 1;
  Rr.Spec_model.reserve m ~thread:1 1;
  Alcotest.(check (option int))
    "t0 holds" (Some 1)
    (Rr.Spec_model.get m ~thread:0 1);
  Rr.Spec_model.release m ~thread:0 1;
  Alcotest.(check (option int))
    "t0 released" None
    (Rr.Spec_model.get m ~thread:0 1);
  Alcotest.(check (option int))
    "t1 unaffected" (Some 1)
    (Rr.Spec_model.get m ~thread:1 1);
  Rr.Spec_model.revoke m 1;
  Alcotest.(check (option int))
    "revoke clears everyone" None
    (Rr.Spec_model.get m ~thread:1 1);
  Alcotest.(check int) "count" 0 (Rr.Spec_model.count m ~thread:1)

let () =
  let per_impl name f =
    List.map (fun (iname, m) -> seq_case (iname ^ " " ^ name) m f) impls
  in
  Alcotest.run "rr"
    [
      ("reserve-get-release", per_impl "basic" test_reserve_get_release);
      ("persistence", per_impl "across txns" test_persists_across_txns);
      ("rollback", per_impl "abort rollback" test_rollback_on_abort);
      ("revoke", per_impl "self revoke" test_revoke_self);
      ("idempotence", per_impl "reserve twice" test_reserve_idempotent);
      ("capacity", per_impl "full set" test_capacity);
      ("multi-slot", per_impl "K=3" test_multi_slot);
      ("lenient-release", per_impl "absent release" test_release_absent_noop);
      ( "cross-thread",
        List.concat
          [
            List.map
              (fun (n, m) ->
                seq_case (n ^ " per-thread") m test_per_thread_sets)
              impls;
            List.map
              (fun (n, m) ->
                seq_case (n ^ " cross revoke") m test_cross_thread_revoke)
              impls;
            List.map
              (fun (n, m) ->
                seq_case (n ^ " no spurious under collision") m
                  test_strict_no_spurious)
              strict_impls;
            List.map
              (fun (n, m) ->
                seq_case (n ^ " sound under collision") m
                  test_relaxed_sound_under_collision)
              relaxed_impls;
          ] );
      ( "specifics",
        [
          Alcotest.test_case "RR-XO exclusivity" `Quick test_xo_exclusive;
          Alcotest.test_case "RR-SO sharing" `Quick test_so_shared;
          Alcotest.test_case "RR-V concurrent holders" `Quick
            test_v_concurrent_holders;
        ] );
      ( "engine",
        [
          Alcotest.test_case "single finish" `Quick test_hoh_single_finish;
          Alcotest.test_case "hand-off chain" `Quick test_hoh_chain;
          Alcotest.test_case "revoked resume" `Quick test_hoh_revoked_resume;
          Alcotest.test_case "window scatter" `Quick test_window_scatter;
          Alcotest.test_case "window fixed" `Quick test_window_no_scatter;
          Alcotest.test_case "window invalid" `Quick test_window_invalid;
          Alcotest.test_case "window adaptive" `Quick test_window_adaptive;
          Alcotest.test_case "spec model" `Quick test_spec_model;
        ] );
      ( "properties",
        List.map
          (fun im -> QCheck_alcotest.to_alcotest (qcheck_spec_conformance im))
          impls
        @ [
            (* the paper's lazy bucket-unlink optimization must not change
               RR-DM/RR-SA semantics *)
            QCheck_alcotest.to_alcotest
              (qcheck_spec_conformance ~suffix:" [lazy unlink]"
                 ~config:
                   {
                     Rr.Config.default with
                     slots_per_thread = 5;
                     dm_eager_unlink = false;
                   }
                 ("RR-DM", (module Rr.Dm : Rr.S)));
            QCheck_alcotest.to_alcotest
              (qcheck_spec_conformance ~suffix:" [lazy unlink]"
                 ~config:
                   {
                     Rr.Config.default with
                     slots_per_thread = 5;
                     dm_eager_unlink = false;
                   }
                 ("RR-SA", (module Rr.Sa : Rr.S)));
          ] );
      ("concurrent-stress", List.map concurrent_stress_test impls);
    ]
