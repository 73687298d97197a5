(* Command-line driver for a single benchmark configuration: pick a data
   structure family, a reservation/reclamation mode, and a workload, run
   it, and print throughput, abort statistics, reclamation metrics, and the
   correctness verdict (including the commit-stamp serialization check when
   --verify is set).

   Flags that do not apply to the selected family are rejected with a
   usage message: the lock-free baselines have no transaction window, no
   scatter, no pool placement strategy, and (nm-tree) no mode — silently
   ignoring such a flag would report numbers for a configuration the user
   did not ask for. *)

open Cmdliner
open Harness

let family_conv =
  Arg.enum
    [ ("slist", `Slist); ("dlist", `Dlist); ("bst-int", `Bst_int);
      ("bst-ext", `Bst_ext); ("lf-list", `Lf_list); ("nm-tree", `Nm_tree) ]

let family_name = function
  | `Slist -> "slist"
  | `Dlist -> "dlist"
  | `Bst_int -> "bst-int"
  | `Bst_ext -> "bst-ext"
  | `Lf_list -> "lf-list"
  | `Nm_tree -> "nm-tree"

let mode_conv =
  let parse s =
    match Factories.Spec.kind_of_name (String.uppercase_ascii s) with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown mode %S (want RR-FA/RR-DM/RR-SA/RR-XO/RR-SO/RR-V/HTM/TMHP/REF/EBR)"
               s))
  in
  Arg.conv (parse, fun ppf m -> Fmt.string ppf (Structs.Mode.kind_name m))

let run family mode window scatter middle magazines key_bits lookup_pct
    threads ops verify strategy telemetry =
  let ( let* ) = Result.bind in
  let inapplicable flag v =
    match v with
    | None -> Ok ()
    | Some _ ->
        Error
          (`Msg
            (Printf.sprintf "%s does not apply to the %s family" flag
               (family_name family)))
  in
  let spec_structure =
    match family with
    | `Slist -> Some Factories.Spec.Slist
    | `Dlist -> Some Factories.Spec.Dlist
    | `Bst_int -> Some Factories.Spec.Bst_int
    | `Bst_ext -> Some Factories.Spec.Bst_ext
    | `Lf_list | `Nm_tree -> None
  in
  let* factory =
    match spec_structure with
    | Some structure ->
        let mode =
          Option.value mode ~default:(Structs.Mode.Rr_kind (module Rr.V))
        in
        let window = Option.value window ~default:8 in
        let scatter = Option.value scatter ~default:true in
        let strategy =
          match Option.value strategy ~default:`Arena with
          | `Arena -> Mempool.Thread_arena
          | `Size_class -> Mempool.Size_class
        in
        Ok
          (Factories.make
             (Factories.Spec.v ~window ~scatter ?middle ?magazines
                ~strategy structure mode))
    | None ->
        (* Lock-free baselines take none of the transactional knobs, and
           nm-tree has no reclamation mode at all. lf-list accepts only
           TMHP (the hazard-pointer variant); omitting --mode selects the
           leaky baseline. *)
        let* () = inapplicable "--window" window in
        let* () = inapplicable "--scatter" scatter in
        let* () = inapplicable "--middle" middle in
        let* () = inapplicable "--magazines" magazines in
        let* () = inapplicable "--allocator" strategy in
        (match family with
        | `Lf_list -> (
            match mode with
            | None -> Ok (Factories.lf_list `Leak)
            | Some Structs.Mode.Tmhp -> Ok (Factories.lf_list `Hp)
            | Some m ->
                Error
                  (`Msg
                    (Printf.sprintf
                       "mode %s does not apply to lf-list (use --mode TMHP \
                        for hazard pointers, or omit --mode for the leaky \
                        baseline)"
                       (Structs.Mode.kind_name m))))
        | _ ->
            let* () = inapplicable "--mode" mode in
            Ok (Factories.nm_tree ()))
  in
  if telemetry then Telemetry.set_enabled true;
  Tm.Thread.with_registered (fun _ ->
      let spec =
        Workload.spec ~key_bits ~lookup_pct ~threads ~ops_per_thread:ops ()
      in
      let h = factory.Factories.make () in
      let r = Driver.run ~verify spec h in
      Format.printf "%a@." Driver.pp_result r;
      let opt name = function
        | Some v -> Format.printf "  %s: %d@." name v
        | None -> ()
      in
      opt "live nodes after drain" r.Driver.pool_live;
      opt "peak deferred backlog" r.Driver.max_backlog;
      opt "leaked nodes" r.Driver.leaked;
      (match r.Driver.telemetry with
      | Some rep -> Format.printf "%a" Telemetry.Report.pp rep
      | None -> ());
      match r.Driver.verdict with
      | Ok () -> Ok 0
      | Error _ ->
          (* a failed verdict must be replayable from the report alone *)
          Format.printf "  repro: %s@."
            (String.concat " " (Array.to_list Sys.argv));
          Ok 1)

let cmd =
  let family =
    Arg.(
      value
      & opt family_conv `Slist
      & info [ "f"; "family" ] ~doc:"Data structure family: $(docv)."
          ~docv:"slist|dlist|bst-int|bst-ext|lf-list|nm-tree")
  in
  let mode =
    Arg.(
      value
      & opt (some mode_conv) None
      & info [ "m"; "mode" ]
          ~doc:"Reservation/reclamation mode: RR-FA, RR-DM, RR-SA, RR-XO, \
                RR-SO, RR-V, HTM, TMHP, REF, or EBR (default RR-V). For \
                lf-list, TMHP selects the hazard-pointer variant and \
                omitting the flag the leaky baseline; inapplicable to \
                nm-tree.")
  in
  let window =
    Arg.(
      value
      & opt (some int) None
      & info [ "w"; "window" ]
          ~doc:"Nodes per transaction (default 8; transactional families \
                only).")
  in
  let scatter =
    Arg.(
      value
      & opt (some bool) None
      & info [ "scatter" ]
          ~doc:"Scatter first window (default true; transactional families \
                only).")
  in
  let middle =
    Arg.(
      value
      & opt (some bool) None
      & info [ "middle" ]
          ~doc:"Retry under the per-structure middle lock before the serial \
                fallback (default false; transactional families only).")
  in
  let magazines =
    Arg.(
      value
      & opt (some bool) None
      & info [ "magazines" ]
          ~doc:"Per-thread two-magazine pool caches (default false; \
                transactional families only).")
  in
  let key_bits =
    Arg.(value & opt int 8 & info [ "b"; "key-bits" ] ~doc:"Key range 2^BITS.")
  in
  let lookup_pct =
    Arg.(value & opt int 33 & info [ "l"; "lookups" ] ~doc:"Lookup percentage.")
  in
  let threads =
    Arg.(value & opt int 4 & info [ "t"; "threads" ] ~doc:"Worker domains.")
  in
  let ops =
    Arg.(value & opt int 10_000 & info [ "n"; "ops" ] ~doc:"Ops per thread.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Log every operation and check commit-stamp serializability.")
  in
  let strategy =
    Arg.(
      value
      & opt (some (enum [ ("arena", `Arena); ("size-class", `Size_class) ])) None
      & info [ "allocator" ]
          ~doc:"Pool placement strategy (default arena; transactional \
                families only).")
  in
  let telemetry =
    Arg.(
      value & flag
      & info [ "telemetry" ]
          ~doc:"Enable the telemetry layer and print the post-run report \
                (latency histograms, abort attribution, gauges).")
  in
  let term =
    Term.(
      term_result ~usage:true
        (const run $ family $ mode $ window $ scatter $ middle
        $ magazines $ key_bits $ lookup_pct $ threads $ ops $ verify
        $ strategy $ telemetry))
  in
  Cmd.v
    (Cmd.info "hohtx-bench" ~version:"1.0"
       ~doc:"Run one hand-over-hand-transactions benchmark configuration")
    term

let () = exit (Cmd.eval' cmd)
