(* Tests for the transactional data structures: Listing 5's singly linked
   list, the doubly linked list with split unlink-and-revoke, and the
   internal/external unbalanced BSTs — across every reservation mode. *)

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

open Harness

let rr_kinds = Factories.rr_kinds

module Spec = Factories.Spec

(* Every factory under test is a [Spec.t]; the HTM (plain single-
   transaction) variants take the structure's default window. *)
let spec ?window ?buckets structure kind =
  Factories.make (Spec.v ?window ?buckets structure kind)

let slist_factories =
  List.map (fun (_, k) -> spec ~window:3 Spec.Slist k) rr_kinds
  @ [
      spec Spec.Slist Structs.Mode.Htm;
      spec ~window:3 Spec.Slist Structs.Mode.Tmhp;
      spec ~window:3 Spec.Slist Structs.Mode.Ref;
      spec ~window:3 Spec.Slist Structs.Mode.Ebr;
    ]

let dlist_factories =
  List.map (fun (_, k) -> spec ~window:3 Spec.Dlist k) rr_kinds
  @ [
      spec Spec.Dlist Structs.Mode.Htm;
      spec ~window:3 Spec.Dlist Structs.Mode.Tmhp;
      spec ~window:3 Spec.Dlist Structs.Mode.Ebr;
    ]

let bst_int_factories =
  List.map (fun (_, k) -> spec ~window:3 Spec.Bst_int k) rr_kinds
  @ [ spec Spec.Bst_int Structs.Mode.Htm ]

let bst_ext_factories =
  List.map (fun (_, k) -> spec ~window:3 Spec.Bst_ext k) rr_kinds
  @ [
      spec Spec.Bst_ext Structs.Mode.Htm;
      spec ~window:3 Spec.Bst_ext Structs.Mode.Tmhp;
      spec ~window:3 Spec.Bst_ext Structs.Mode.Ebr;
    ]

(* hash set: use few buckets so chains are long enough to exercise
   hand-over-hand windows and reservations *)
let hashset_factories =
  List.map (fun (_, k) -> spec ~buckets:4 ~window:3 Spec.Hashset k) rr_kinds
  @ [
      spec ~buckets:4 Spec.Hashset Structs.Mode.Htm;
      spec ~buckets:4 ~window:3 Spec.Hashset Structs.Mode.Tmhp;
      spec ~buckets:4 ~window:3 Spec.Hashset Structs.Mode.Ebr;
    ]

let skiplist_factories =
  List.map (fun (_, k) -> spec ~window:3 Spec.Skiplist k) rr_kinds
  @ [
      spec Spec.Skiplist Structs.Mode.Htm;
      spec ~window:3 Spec.Skiplist Structs.Mode.Tmhp;
      spec ~window:3 Spec.Skiplist Structs.Mode.Ebr;
    ]

let all_factories =
  List.concat
    [
      List.map (fun f -> ("slist", f)) slist_factories;
      List.map (fun f -> ("dlist", f)) dlist_factories;
      List.map (fun f -> ("bst-int", f)) bst_int_factories;
      List.map (fun f -> ("bst-ext", f)) bst_ext_factories;
      List.map (fun f -> ("hashset", f)) hashset_factories;
      List.map (fun f -> ("skiplist", f)) skiplist_factories;
    ]

(* ---- sequential semantics against a Set model ---- *)

type op = I of int | R of int | L of int

let gen_ops =
  let open QCheck.Gen in
  let key = map (fun k -> k + 1) (int_bound 30) in
  list_size (int_bound 60)
    (oneof
       [ map (fun k -> I k) key; map (fun k -> R k) key; map (fun k -> L k) key ])

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | I k -> Printf.sprintf "I%d" k
         | R k -> Printf.sprintf "R%d" k
         | L k -> Printf.sprintf "L%d" k)
       ops)

(* Shrink both the op list (drop ops) and individual keys (toward 1), so
   counterexamples come back as the shortest sequence over the smallest
   keys that still disagrees with the model. *)
let shrink_op op yield =
  let key k mk = QCheck.Shrink.int k (fun k' -> if k' >= 1 then yield (mk k')) in
  match op with
  | I k -> key k (fun k -> I k)
  | R k -> key k (fun k -> R k)
  | L k -> key k (fun k -> L k)

let shrink_ops = QCheck.Shrink.list ~shrink:shrink_op

let arb_ops = QCheck.make ~print:print_ops ~shrink:shrink_ops gen_ops

(* Boolean views of the typed Store replies, for model comparison. *)
let ins st ~thread k = Store.positive (Store.insert st ~thread k).Store.outcome
let rem st ~thread k = Store.positive (Store.remove st ~thread k).Store.outcome
let mem st ~thread k = Store.positive (Store.get st ~thread k).Store.outcome

(* Drive a store and a Hashtbl model through the same op sequence; true
   iff every op agreed, the final contents match, and invariants hold. *)
let agrees_with_model (h : Store.t) tid ops =
  let model = Hashtbl.create 64 in
  let ok =
    List.for_all
      (fun op ->
        match op with
        | I k ->
            let expected = not (Hashtbl.mem model k) in
            if expected then Hashtbl.replace model k ();
            ins h ~thread:tid k = expected
        | R k ->
            let expected = Hashtbl.mem model k in
            if expected then Hashtbl.remove model k;
            rem h ~thread:tid k = expected
        | L k -> mem h ~thread:tid k = Hashtbl.mem model k)
      ops
  in
  Store.finalize_thread h ~thread:tid;
  Store.drain h;
  let contents = List.sort compare (Store.contents h) in
  let model_contents =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model [])
  in
  ok && contents = model_contents && Store.check h = Ok ()

let qcheck_sequential (family, f) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s/%s sequential model" family f.Factories.label)
    ~count:60 arb_ops
    (fun ops ->
      Tm.Thread.with_registered (fun tid ->
          agrees_with_model (f.Factories.make ()) tid ops))

(* Window-randomized variant: the hand-over-hand window is part of the
   generated input (1..4, so the single-node window edge is exercised),
   over the chained structures where the window governs hand-off
   frequency — dlist, hashset, skiplist — for every RR flavour. The
   window does not shrink: a short op list at the original window is the
   more useful counterexample. *)
let gen_windowed =
  QCheck.Gen.(pair (map (fun w -> 1 + w) (int_bound 3)) gen_ops)

let arb_windowed =
  QCheck.make
    ~print:(fun (w, ops) -> Printf.sprintf "window=%d [%s]" w (print_ops ops))
    ~shrink:(QCheck.Shrink.pair QCheck.Shrink.nil shrink_ops)
    gen_windowed

let qcheck_windowed (family, structure, buckets) (kname, kind) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s/%s windowed model" family kname)
    ~count:40 arb_windowed
    (fun (window, ops) ->
      Tm.Thread.with_registered (fun tid ->
          let f = spec ~window ?buckets structure kind in
          agrees_with_model (f.Factories.make ()) tid ops))

let windowed_tests =
  List.concat_map
    (fun target -> List.map (qcheck_windowed target) rr_kinds)
    [
      ("dlist", Spec.Dlist, None);
      ("hashset", Spec.Hashset, Some 4);
      ("skiplist", Spec.Skiplist, None);
    ]

(* ---- targeted unit tests ---- *)

let with_handle f g =
  Tm.Thread.with_registered (fun tid -> g tid (f.Factories.make ()))

let test_empty_ops (_, f) () =
  with_handle f (fun tid h ->
      checkb "lookup on empty" false (mem h ~thread:tid 5);
      checkb "remove on empty" false (rem h ~thread:tid 5);
      check "size 0" 0 (Store.size h);
      checkb "check ok" true (Store.check h = Ok ()))

let test_duplicate_insert (_, f) () =
  with_handle f (fun tid h ->
      checkb "first insert" true (ins h ~thread:tid 7);
      checkb "duplicate rejected" false (ins h ~thread:tid 7);
      check "size 1" 1 (Store.size h))

let test_sorted_contents (_, f) () =
  with_handle f (fun tid h ->
      List.iter
        (fun k -> ignore (ins h ~thread:tid k))
        [ 5; 1; 9; 3; 7; 2; 8 ];
      Alcotest.(check (list int))
        "contents sorted" [ 1; 2; 3; 5; 7; 8; 9 ]
        (Store.contents h))

let test_remove_all (family, f) () =
  with_handle f (fun tid h ->
      let keys = List.init 40 (fun i -> i + 1) in
      List.iter (fun k -> ignore (ins h ~thread:tid k)) keys;
      List.iter
        (fun k ->
          checkb "removed" true (rem h ~thread:tid k))
        keys;
      check "empty at end" 0 (Store.size h);
      Store.finalize_thread h ~thread:tid;
      Store.drain h;
      (match Store.pool_live h with
      | Some live ->
          check (family ^ " precise reclamation: no live nodes") 0 live
      | None -> ());
      checkb "check ok" true (Store.check h = Ok ()))

(* Interleaved single-thread churn exercises node reuse heavily. *)
let test_churn (_, f) () =
  with_handle f (fun tid h ->
      let rng = Test_util.Prng.create 99 in
      let model = Hashtbl.create 64 in
      for _ = 1 to 3000 do
        let k = 1 + Test_util.Prng.int rng 16 in
        match Test_util.Prng.int rng 3 with
        | 0 ->
            let e = not (Hashtbl.mem model k) in
            if e then Hashtbl.replace model k ();
            checkb "insert agrees" e (ins h ~thread:tid k)
        | 1 ->
            let e = Hashtbl.mem model k in
            if e then Hashtbl.remove model k;
            checkb "remove agrees" e (rem h ~thread:tid k)
        | _ ->
            checkb "lookup agrees" (Hashtbl.mem model k)
              (mem h ~thread:tid k)
      done;
      checkb "structure intact" true (Store.check h = Ok ()))

(* ---- concurrent stress with full verification via the driver ---- *)

let driver_case name f spec =
  Alcotest.test_case name `Slow (fun () ->
      Tm.Thread.with_registered (fun _ ->
          let h = f.Factories.make () in
          let r = Driver.run spec h in
          match r.Driver.verdict with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" name e))

let stress_spec =
  Workload.spec ~key_bits:6 ~lookup_pct:30 ~threads:4 ~ops_per_thread:2500 ()

let stress_cases =
  List.map
    (fun (family, f) ->
      driver_case
        (Printf.sprintf "%s/%s serializable under contention" family
           f.Factories.label)
        f stress_spec)
    all_factories

(* ---- structure-specific behaviour ---- *)

let test_dlist_split_ablation () =
  Tm.Thread.with_registered (fun _ ->
      List.iter
        (fun split_unlink ->
          let l =
            Structs.Hoh_dlist.create
              ~mode:(Structs.Mode.Rr_kind (module Rr.Fa))
              ~window:3 ~split_unlink ()
          in
          let h = Store.of_hoh_dlist l in
          let spec =
            Workload.spec ~key_bits:5 ~lookup_pct:20 ~threads:4
              ~ops_per_thread:1500 ()
          in
          let r = Driver.run spec h in
          match r.Driver.verdict with
          | Ok () -> ()
          | Error e -> Alcotest.failf "split_unlink=%b: %s" split_unlink e)
        [ true; false ])

let test_tmhp_no_recycled_resumes () =
  Tm.Thread.with_registered (fun _ ->
      let before = Atomic.get Structs.Mode.tmhp_gen_violations in
      let h = (spec ~window:3 Spec.Slist Structs.Mode.Tmhp).Factories.make () in
      let spec =
        Workload.spec ~key_bits:5 ~lookup_pct:10 ~threads:4
          ~ops_per_thread:2000 ()
      in
      let r = Driver.run spec h in
      checkb "run ok" true (r.Driver.verdict = Ok ());
      check "hazard protocol never resumes a recycled node" before
        (Atomic.get Structs.Mode.tmhp_gen_violations))

let test_tmhp_reclaims_on_drain () =
  Tm.Thread.with_registered (fun tid ->
      let l = Structs.Hoh_list.create ~mode:Structs.Mode.Tmhp ~window:4 () in
      List.iter
        (fun k -> ignore (Structs.Hoh_list.insert l ~thread:tid k))
        (List.init 100 (fun i -> i + 1));
      List.iter
        (fun k -> ignore (Structs.Hoh_list.remove l ~thread:tid k))
        (List.init 100 (fun i -> i + 1));
      Structs.Hoh_list.finalize_thread l ~thread:tid;
      Structs.Hoh_list.drain l;
      (match Structs.Hoh_list.hazard_metrics l with
      | Some m ->
          check "retired everything" 100 m.Reclaim.Hazard.retired_total;
          check "drained backlog" 0 m.Reclaim.Hazard.backlog;
          checkb "deferral was real (backlog grew past 1)" true
            (m.Reclaim.Hazard.max_backlog > 1)
      | None -> Alcotest.fail "expected hazard metrics");
      check "pool empty" 0 (Structs.Hoh_list.pool_stats l).Mempool.Stats.live)

let test_rr_list_reclaims_immediately () =
  Tm.Thread.with_registered (fun tid ->
      let l =
        Structs.Hoh_list.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.V))
          ~window:4 ()
      in
      ignore (Structs.Hoh_list.insert l ~thread:tid 1);
      ignore (Structs.Hoh_list.insert l ~thread:tid 2);
      let live () = (Structs.Hoh_list.pool_stats l).Mempool.Stats.live in
      check "two live" 2 (live ());
      ignore (Structs.Hoh_list.remove l ~thread:tid 1);
      (* precise: the node is back in the pool the moment remove returns *)
      check "freed immediately, no drain needed" 1 (live ()))

(* RR-V's reserve writes only the thread's own reservation slots, which
   are TM locals: on a quiescent list every window of a lookup commits
   read-only, so a lookup across many windows never advances the global
   clock. *)
let test_rr_v_lookup_read_only () =
  Tm.Thread.with_registered (fun tid ->
      let l =
        Structs.Hoh_list.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.V))
          ~window:2 ~scatter:false ()
      in
      for k = 1 to 32 do
        ignore (Structs.Hoh_list.insert l ~thread:tid k)
      done;
      let before = Tm.clock () in
      checkb "found the last key" true (Structs.Hoh_list.lookup l ~thread:tid 32);
      checkb "missed past the end" false
        (Structs.Hoh_list.lookup l ~thread:tid 33);
      check "clock unchanged by lookups" before (Tm.clock ()))

(* Windows flattened into an enclosing serial transaction (a fused
   service batch) report that transaction's [serial] flag, but they did
   not escalate to it: they count as clean, so the budget grows to its
   ceiling (4w) instead of collapsing to 1. *)
let test_adaptive_window_feedback () =
  Tm.Thread.with_registered (fun tid ->
      let l =
        Structs.Hoh_list.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.V))
          ~window:2 ~scatter:false ()
      in
      check "starts at w" 2 (Structs.Hoh_list.budget l ~thread:tid);
      Tm.atomic ~max_attempts:0 (fun _ ->
          for k = 1 to 32 do
            ignore (Structs.Hoh_list.insert l ~thread:tid k)
          done;
          for k = 1 to 32 do
            ignore (Structs.Hoh_list.lookup l ~thread:tid k)
          done);
      check "flattened serial windows grow the budget" 8
        (Structs.Hoh_list.budget l ~thread:tid))

let test_bst_int_two_child_removal () =
  Tm.Thread.with_registered (fun tid ->
      let t =
        Structs.Hoh_bst_int.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.Fa))
          ~window:16 ()
      in
      List.iter
        (fun k -> ignore (Structs.Hoh_bst_int.insert t ~thread:tid k))
        [ 50; 30; 70; 20; 40; 60; 80; 65 ];
      checkb "remove root (two children)" true
        (Structs.Hoh_bst_int.remove t ~thread:tid 50);
      Alcotest.(check (list int))
        "leftmost of right subtree swapped in"
        [ 20; 30; 40; 60; 65; 70; 80 ]
        (Structs.Hoh_bst_int.to_list t);
      checkb "invariants hold" true (Structs.Hoh_bst_int.check t = Ok ());
      checkb "swapped key still found" true
        (Structs.Hoh_bst_int.lookup t ~thread:tid 60);
      checkb "removed key gone" false
        (Structs.Hoh_bst_int.lookup t ~thread:tid 50);
      check "pool live = size" 7
        (Structs.Hoh_bst_int.pool_stats t).Mempool.Stats.live)

let test_bst_int_chain_removal () =
  Tm.Thread.with_registered (fun tid ->
      let t =
        Structs.Hoh_bst_int.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.Xo))
          ~window:2 ()
      in
      (* degenerate (sorted-insert) tree forces deep hand-over-hand chains *)
      for k = 1 to 60 do
        ignore (Structs.Hoh_bst_int.insert t ~thread:tid k)
      done;
      check "depth is linear" 60 (Structs.Hoh_bst_int.depth t);
      for k = 1 to 60 do
        checkb "found" true (Structs.Hoh_bst_int.lookup t ~thread:tid k)
      done;
      for k = 60 downto 1 do
        checkb "removed" true (Structs.Hoh_bst_int.remove t ~thread:tid k)
      done;
      check "empty" 0 (Structs.Hoh_bst_int.size t))

let test_bst_ext_structure () =
  Tm.Thread.with_registered (fun tid ->
      let t =
        Structs.Hoh_bst_ext.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.V))
          ~window:16 ()
      in
      List.iter
        (fun k -> ignore (Structs.Hoh_bst_ext.insert t ~thread:tid k))
        [ 10; 5; 15; 3; 7 ];
      check "size" 5 (Structs.Hoh_bst_ext.size t);
      (* external tree: n leaves and n-1 routers *)
      check "pool live = 2n-1" 9
        (Structs.Hoh_bst_ext.pool_stats t).Mempool.Stats.live;
      checkb "remove leaf" true (Structs.Hoh_bst_ext.remove t ~thread:tid 3);
      check "leaf and router reclaimed" 7
        (Structs.Hoh_bst_ext.pool_stats t).Mempool.Stats.live;
      checkb "invariants" true (Structs.Hoh_bst_ext.check t = Ok ());
      checkb "last leaf removable" true
        (List.for_all
           (fun k -> Structs.Hoh_bst_ext.remove t ~thread:tid k)
           [ 10; 5; 15; 7 ]);
      check "empty tree" 0 (Structs.Hoh_bst_ext.size t);
      check "nothing live" 0
        (Structs.Hoh_bst_ext.pool_stats t).Mempool.Stats.live;
      checkb "reinsert into empty works" true
        (Structs.Hoh_bst_ext.insert t ~thread:tid 42))

let test_key_range_checks () =
  Tm.Thread.with_registered (fun tid ->
      let l =
        Structs.Hoh_list.create ~mode:(Structs.Mode.Rr_kind (module Rr.V)) ()
      in
      checkb "rejects sentinel-range keys" true
        (match Structs.Hoh_list.insert l ~thread:tid min_int with
        | _ -> false
        | exception Invalid_argument _ -> true);
      let t = Structs.Hoh_bst_ext.create ~mode:Structs.Mode.Htm () in
      checkb "bst rejects max_int" true
        (match Structs.Hoh_bst_ext.insert t ~thread:tid max_int with
        | _ -> false
        | exception Invalid_argument _ -> true))

let test_mode_restrictions () =
  checkb "internal tree rejects TMHP" true
    (match Structs.Hoh_bst_int.create ~mode:Structs.Mode.Tmhp () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "internal tree rejects EBR" true
    (match Structs.Hoh_bst_int.create ~mode:Structs.Mode.Ebr () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "external tree rejects REF" true
    (match Structs.Hoh_bst_ext.create ~mode:Structs.Mode.Ref () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_skiplist_structure () =
  Tm.Thread.with_registered (fun tid ->
      let sl =
        Structs.Hoh_skiplist.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.V))
          ~window:4 ()
      in
      for k = 1 to 500 do
        checkb "insert" true (Structs.Hoh_skiplist.insert sl ~thread:tid k)
      done;
      check "size" 500 (Structs.Hoh_skiplist.size sl);
      checkb "multi-level invariants" true
        (Structs.Hoh_skiplist.check sl = Ok ());
      let hist = Structs.Hoh_skiplist.levels_histogram sl in
      checkb "some tall towers exist" true
        (Array.exists (fun c -> c > 0) (Array.sub hist 3 (Array.length hist - 3)));
      checkb "height-1 dominates (geometric)" true
        (hist.(1) > hist.(2) && hist.(2) > hist.(3));
      for k = 1 to 500 do
        checkb "remove" true (Structs.Hoh_skiplist.remove sl ~thread:tid k)
      done;
      check "precise reclamation" 0
        (Structs.Hoh_skiplist.pool_stats sl).Mempool.Stats.live)

(* Tower heights stay within [Snode.max_level]: a fresh RR-V skiplist's
   per-thread level generator first draws the cap at about the 1.5k-th
   single-thread insert, which used to index [next.(max_level)] and
   raise. *)
let test_skiplist_tower_cap () =
  Tm.Thread.with_registered (fun tid ->
      let sl =
        Structs.Hoh_skiplist.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.V))
          ()
      in
      for k = 1 to 4096 do
        checkb "insert" true (Structs.Hoh_skiplist.insert sl ~thread:tid k)
      done;
      check "size" 4096 (Structs.Hoh_skiplist.size sl);
      checkb "store check" true (Store.check (Store.of_skiplist sl) = Ok ()))

(* Operations compose: because nested Tm.atomic calls flatten into the
   enclosing transaction, a remove-from-one/insert-into-other pair wrapped
   in an outer transaction moves an element between two structures
   atomically — concurrent observers never see the element in both or in
   neither. *)
let test_atomic_cross_structure_move () =
  Tm.Thread.with_registered (fun tid ->
      let mk () =
        Structs.Hoh_list.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.V))
          ~window:4 ()
      in
      let a = mk () and b = mk () in
      for k = 1 to 32 do
        ignore (Structs.Hoh_list.insert a ~thread:tid k)
      done;
      let stop = Atomic.make false in
      let violations = Atomic.make 0 in
      let observer =
        Domain.spawn (fun () ->
            Tm.Thread.with_registered (fun otid ->
                while not (Atomic.get stop) do
                  for k = 1 to 32 do
                    let in_both =
                      Tm.atomic (fun _ ->
                          let ia = Structs.Hoh_list.lookup a ~thread:otid k in
                          let ib = Structs.Hoh_list.lookup b ~thread:otid k in
                          (ia, ib))
                    in
                    match in_both with
                    | true, true | false, false -> Atomic.incr violations
                    | _ -> ()
                  done
                done))
      in
      (* move everything a -> b, one atomic move at a time *)
      for k = 1 to 32 do
        let moved =
          Tm.atomic (fun _ ->
              let r = Structs.Hoh_list.remove a ~thread:tid k in
              if r then assert (Structs.Hoh_list.insert b ~thread:tid k);
              r)
        in
        checkb "moved" true moved
      done;
      Atomic.set stop true;
      Domain.join observer;
      check "no observer saw a torn move" 0 (Atomic.get violations);
      check "a empty" 0 (Structs.Hoh_list.size a);
      check "b full" 32 (Structs.Hoh_list.size b))

let test_hashset_buckets () =
  Tm.Thread.with_registered (fun tid ->
      let h =
        Structs.Hoh_hashset.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.V))
          ~buckets:2 ~window:2 ()
      in
      for k = 1 to 200 do
        checkb "insert" true (Structs.Hoh_hashset.insert h ~thread:tid k)
      done;
      check "size" 200 (Structs.Hoh_hashset.size h);
      Alcotest.(check (list int))
        "sorted contents"
        (List.init 200 (fun i -> i + 1))
        (Structs.Hoh_hashset.to_list h);
      checkb "bucket invariants" true (Structs.Hoh_hashset.check h = Ok ());
      for k = 1 to 200 do
        checkb "remove" true (Structs.Hoh_hashset.remove h ~thread:tid k)
      done;
      check "reclaimed" 0
        (Structs.Hoh_hashset.pool_stats h).Mempool.Stats.live)

let test_ebr_defers_then_reclaims () =
  Tm.Thread.with_registered (fun tid ->
      let l = Structs.Hoh_list.create ~mode:Structs.Mode.Ebr ~window:4 () in
      List.iter
        (fun k -> ignore (Structs.Hoh_list.insert l ~thread:tid k))
        (List.init 100 (fun i -> i + 1));
      List.iter
        (fun k -> ignore (Structs.Hoh_list.remove l ~thread:tid k))
        (List.init 100 (fun i -> i + 1));
      Structs.Hoh_list.finalize_thread l ~thread:tid;
      Structs.Hoh_list.drain l;
      (match Structs.Hoh_list.hazard_metrics l with
      | Some m ->
          check "all retired" 100 m.Reclaim.Hazard.retired_total;
          check "all freed after drain" 100 m.Reclaim.Hazard.freed_total;
          checkb "epoch advanced" true (m.Reclaim.Hazard.scans > 0)
      | None -> Alcotest.fail "expected epoch metrics");
      check "pool empty" 0 (Structs.Hoh_list.pool_stats l).Mempool.Stats.live)

let () =
  let unit_cases name f =
    List.map
      (fun ((family, fac) as x) ->
        Alcotest.test_case
          (Printf.sprintf "%s/%s %s" family fac.Factories.label name)
          `Quick (f x))
      all_factories
  in
  Alcotest.run "structs"
    [
      ("empty", unit_cases "empty ops" test_empty_ops);
      ("duplicates", unit_cases "duplicate insert" test_duplicate_insert);
      ("sorted", unit_cases "sorted contents" test_sorted_contents);
      ("remove-all", unit_cases "remove all + reclamation" test_remove_all);
      ( "churn",
        List.map
          (fun ((family, fac) as x) ->
            Alcotest.test_case
              (Printf.sprintf "%s/%s churn" family fac.Factories.label)
              `Slow (test_churn x))
          all_factories );
      ("stress", stress_cases);
      ( "specifics",
        [
          Alcotest.test_case "dlist split ablation" `Slow
            test_dlist_split_ablation;
          Alcotest.test_case "tmhp: no recycled resumes" `Slow
            test_tmhp_no_recycled_resumes;
          Alcotest.test_case "tmhp: deferred reclamation" `Quick
            test_tmhp_reclaims_on_drain;
          Alcotest.test_case "rr: immediate reclamation" `Quick
            test_rr_list_reclaims_immediately;
          Alcotest.test_case "rr-v: lookups commit read-only" `Quick
            test_rr_v_lookup_read_only;
          Alcotest.test_case "adaptive window feedback" `Quick
            test_adaptive_window_feedback;
          Alcotest.test_case "bst-int: two-child removal" `Quick
            test_bst_int_two_child_removal;
          Alcotest.test_case "bst-int: degenerate chain" `Quick
            test_bst_int_chain_removal;
          Alcotest.test_case "bst-ext: structure and reclamation" `Quick
            test_bst_ext_structure;
          Alcotest.test_case "key range" `Quick test_key_range_checks;
          Alcotest.test_case "mode restrictions" `Quick test_mode_restrictions;
          Alcotest.test_case "hashset buckets" `Quick test_hashset_buckets;
          Alcotest.test_case "atomic cross-structure move" `Slow
            test_atomic_cross_structure_move;
          Alcotest.test_case "skiplist structure" `Quick
            test_skiplist_structure;
          Alcotest.test_case "skiplist tower cap" `Quick
            test_skiplist_tower_cap;
          Alcotest.test_case "ebr: deferred reclamation" `Quick
            test_ebr_defers_then_reclaims;
        ] );
      ( "properties",
        List.map
          (fun x -> QCheck_alcotest.to_alcotest (qcheck_sequential x))
          all_factories );
      ( "windowed-properties",
        List.map QCheck_alcotest.to_alcotest windowed_tests );
    ]
