(* Capped smoke run of the deterministic-schedule explorer, wired to the
   [dst-smoke] dune alias (and from there into [runtest] and CI). Each of
   the three DESIGN.md bugs is re-injected, rediscovered by its documented
   seeded search, and cross-checked against the committed minimized
   schedule; the fixed code must survive both the search and the pinned
   adversarial schedules. The timestamp-extension scenarios then run as
   oracles (no schedule may break opacity or the read-phase guarantee)
   and as pinned deterministic replays of the extension success/failure
   paths. Exits non-zero on any miss. *)

let failures = ref 0

let expect what ok =
  if ok then Printf.printf "dst-smoke: %-46s ok\n%!" what
  else begin
    incr failures;
    Printf.printf "dst-smoke: %-46s FAILED\n%!" what
  end

let found name = function
  | None ->
      expect name false
  | Some f ->
      Printf.printf "dst-smoke: %-46s found (seed %s, %d runs, %d-step schedule)\n%!"
        name
        (match f.Dst.Explore.seed with Some s -> string_of_int s | None -> "-")
        f.Dst.Explore.runs
        (Array.length f.Dst.Explore.schedule)

let () =
  let open Dst_scenarios in
  (* searches, at the budgets documented in Dst_scenarios *)
  found "bug #1 straddle / random search"
    (Dst.Explore.random_search ~budget:500 ~max_runs:2000 (straddle ~bug:true));
  found "bug #2 ro-publication / PCT search"
    (Dst.Explore.pct_search ~budget:300 ~max_runs:6000 ~depth:2
       (ro_publication ~bug:true));
  found "bug #3 stale-hint / PCT search"
    (Dst.Explore.pct_search ~budget:400 ~max_runs:6000 ~depth:2
       (stale_hint ~bug:true));
  (* pinned minimized schedules: buggy fails, fixed survives *)
  let replay name mk sched fails =
    expect name (Dst.Sched.failed (Dst.Explore.replay mk sched) = fails)
  in
  replay "bug #1 pinned schedule triggers" (straddle ~bug:true) sched_bug1 true;
  replay "bug #1 fixed code survives" (straddle ~bug:false) sched_bug1 false;
  replay "bug #2 pinned schedule triggers" (ro_publication ~bug:true) sched_bug2
    true;
  replay "bug #2 fixed code survives" (ro_publication ~bug:false) sched_bug2
    false;
  replay "bug #3 pinned schedule triggers" (stale_hint ~bug:true) sched_bug3
    true;
  replay "bug #3 fixed code survives" (stale_hint ~bug:false) sched_bug3 false;
  (* timestamp extension: oracle searches must find no opacity or
     read-phase violation on any explored schedule, and the pinned
     schedules must drive the protocol through the extension paths
     deterministically (one-attempt rescue / clean fail-and-retry) *)
  expect "extension opacity / random oracle"
    (Option.is_none
       (Dst.Explore.random_search ~budget:300 ~max_runs:400
          (extend_success ~expect:`Opaque)));
  expect "extension opacity / PCT oracle"
    (Option.is_none
       (Dst.Explore.pct_search ~budget:300 ~max_runs:400 ~depth:2
          (extend_fail ~expect:`Opaque)));
  expect "read-phase hint / random oracle"
    (Option.is_none
       (Dst.Explore.random_search ~budget:300 ~max_runs:400 read_phase_wait));
  replay "extension success pinned schedule"
    (extend_success ~expect:`Strong)
    sched_extend_ok false;
  replay "extension failure pinned schedule"
    (extend_fail ~expect:`Strong)
    sched_extend_fail false;
  (* the middle path and the adaptive window controller: no schedule may
     break the middle path's safety (both commits land, lock released) or
     adapted windows' serializability, and the pinned schedules must
     deterministically drive the middle-path rescue and the window-budget
     shrink *)
  expect "middle-path safety / random oracle"
    (Option.is_none
       (Dst.Explore.random_search ~budget:300 ~max_runs:400
          (middle_exclusion ~expect:`Safe)));
  expect "adaptive-window serializability / random oracle"
    (Option.is_none
       (Dst.Explore.random_search ~budget:400 ~max_runs:100
          (window_shrink ~expect:`Safe)));
  replay "middle-path exclusion pinned schedule"
    (middle_exclusion ~expect:`Strong)
    sched_middle false;
  replay "window shrink-on-abort pinned schedule"
    (window_shrink ~expect:`Strong)
    sched_window false;
  Dst.Inject.clear ();
  if !failures > 0 then exit 1
