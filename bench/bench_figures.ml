(* Reproduction of the paper's evaluation figures (Sec. 5). Each [figure_n]
   regenerates the corresponding figure's series as text tables (threads
   down the rows, one column per implementation, throughput in ops/s) and
   optional CSV files. Absolute numbers differ from the paper's i7-4770/TSX
   testbed — the substrate here is a software TM on whatever machine this
   runs on — but the comparative shape is the reproduction target. *)

open Harness
module Spec = Factories.Spec

(* Every curve is a [Spec.t]; [build] instantiates a fresh handle. *)
let build spec = (Factories.make spec).Factories.make ()

(* The figures reproduce the paper's fixed window W, so every windowed
   curve pins the static window over the library's adaptive default. *)
let static = Spec.v ~adaptive:false

type mode_params = {
  quick : bool;
  csv_dir : string option;
  verify : bool;
  aborts : bool;  (** also print abort-rate tables per panel *)
  threads_list : int list;
}

let ops_per_thread p = if p.quick then 2000 else 50_000

(* The paper tunes W per thread count and data structure (Sec. 5.2). *)
let list_window ~threads = if threads <= 4 then 16 else 8
let tree_window ~threads = if threads <= 4 then 24 else 12

type curve = { label : string; make : threads:int -> Store.t }

let curve label make = { label; make }

let run_panel p ~title ~curves ~spec_of =
  let series, abort_series =
    List.map
      (fun c ->
        let points =
          List.map
            (fun threads ->
              let h = c.make ~threads in
              let spec = spec_of ~threads in
              let r = Driver.run ~verify:p.verify spec h in
              (match r.Driver.verdict with
              | Ok () -> ()
              | Error e ->
                  Printf.printf "!! verification failed [%s %s]: %s\n%!" title
                    c.label e);
              (threads, r))
            p.threads_list
        in
        ( {
            Report.label = c.label;
            points = List.map (fun (t, r) -> (t, r.Driver.throughput)) points;
          },
          {
            Report.label = c.label;
            points =
              List.map
                (fun (t, r) -> (t, 1000. *. Driver.abort_rate r))
                points;
          } ))
      curves
    |> List.split
  in
  Report.print_table ~title ~xlabel:"threads" series;
  if p.aborts then
    Report.print_table
      ~title:(title ^ " [aborts per 1000 attempts]")
      ~xlabel:"threads" abort_series;
  match p.csv_dir with
  | None -> ()
  | Some dir ->
      let name =
        String.map (fun c -> if c = ' ' || c = ',' || c = '%' then '_' else c) title
      in
      ignore (Report.save_csv ~dir ~name ~xlabel:"threads" series)

(* ---- curve sets ---- *)

let rr_list_curves ~window_of =
  List.map
    (fun (name, kind) ->
      curve name (fun ~threads ->
          build (static ~window:(window_of ~threads) Spec.Slist kind)))
    Factories.rr_kinds

let struct_curve ?strategy ?split_unlink structure kind ~window_of =
  curve
    (Structs.Mode.kind_name kind)
    (fun ~threads ->
      build
        (static ?strategy ?split_unlink ~window:(window_of ~threads) structure
           kind))

let slist_curve ?strategy kind ~window_of =
  struct_curve ?strategy Spec.Slist kind ~window_of

let dlist_curve ?strategy ?split_unlink kind ~window_of =
  struct_curve ?strategy ?split_unlink Spec.Dlist kind ~window_of

let bst_int_curve kind ~window_of = struct_curve Spec.Bst_int kind ~window_of
let bst_ext_curve kind ~window_of = struct_curve Spec.Bst_ext kind ~window_of

(* ---- Figure 2: singly linked list ---- *)

let figure_2 p =
  let ops = ops_per_thread p in
  List.iter
    (fun key_bits ->
      List.iter
        (fun lookup_pct ->
          let spec_of ~threads =
            Workload.spec ~key_bits ~lookup_pct ~threads ~ops_per_thread:ops ()
          in
          let curves =
            [ slist_curve Structs.Mode.Htm ~window_of:list_window ]
            @ rr_list_curves ~window_of:list_window
            @ [
                slist_curve Structs.Mode.Tmhp ~window_of:list_window;
                slist_curve Structs.Mode.Ref ~window_of:list_window;
              ]
            @
            (* the paper omits the lock-free curves in the 6-bit panels *)
            if key_bits >= 10 then
              [
                curve "LFLeak" (fun ~threads:_ ->
                    (Factories.lf_list `Leak).Factories.make ());
                curve "LFHP" (fun ~threads:_ ->
                    (Factories.lf_list `Hp).Factories.make ());
              ]
            else []
          in
          run_panel p
            ~title:
              (Printf.sprintf "Figure 2: singly linked list, %d-bit keys, %d%% lookups"
                 key_bits lookup_pct)
            ~curves ~spec_of)
        [ 0; 33; 80 ])
    [ 6; 10 ]

(* ---- Figure 3: doubly linked list ---- *)

let figure_3 p =
  let ops = ops_per_thread p in
  List.iter
    (fun key_bits ->
      List.iter
        (fun lookup_pct ->
          let spec_of ~threads =
            Workload.spec ~key_bits ~lookup_pct ~threads ~ops_per_thread:ops ()
          in
          let curves =
            [ dlist_curve Structs.Mode.Htm ~window_of:list_window ]
            @ List.map
                (fun (name, kind) ->
                  curve name (fun ~threads ->
                      build
                        (static ~window:(list_window ~threads) Spec.Dlist kind)))
                Factories.rr_kinds
            @ [ dlist_curve Structs.Mode.Tmhp ~window_of:list_window ]
          in
          run_panel p
            ~title:
              (Printf.sprintf "Figure 3: doubly linked list, %d-bit keys, %d%% lookups"
                 key_bits lookup_pct)
            ~curves ~spec_of)
        [ 0; 33; 80 ])
    [ 6; 10 ]

(* ---- Figure 4: window size sweep ---- *)

let figure_4 p =
  let ops = ops_per_thread p in
  let windows = [ 1; 2; 4; 8; 16; 32 ] in
  List.iter
    (fun kind ->
      let series =
        List.map
          (fun threads ->
            let points =
              List.map
                (fun w ->
                  let h = build (static ~window:w Spec.Slist kind) in
                  let spec =
                    Workload.spec ~key_bits:10 ~lookup_pct:33 ~threads
                      ~ops_per_thread:ops ()
                  in
                  let r = Driver.run ~verify:p.verify spec h in
                  (w, r.Driver.throughput))
                windows
            in
            { Report.label = Printf.sprintf "%d-thread" threads; points })
          p.threads_list
      in
      Report.print_table
        ~title:
          (Printf.sprintf
             "Figure 4: window size impact, %s, 10-bit keys, 33%% lookups"
             (Structs.Mode.kind_name kind))
        ~xlabel:"window" series;
      match p.csv_dir with
      | None -> ()
      | Some dir ->
          ignore
            (Report.save_csv ~dir
               ~name:
                 (Printf.sprintf "figure4_%s" (Structs.Mode.kind_name kind))
               ~xlabel:"window" series))
    [ Structs.Mode.Rr_kind (module Rr.Fa); Structs.Mode.Rr_kind (module Rr.Xo) ]

(* ---- Figure 5: allocator impact ---- *)

let figure_5 p =
  let ops = ops_per_thread p in
  List.iter
    (fun lookup_pct ->
      let spec_of ~threads =
        Workload.spec ~key_bits:9 ~lookup_pct ~threads ~ops_per_thread:ops ()
      in
      let strategies =
        [ ("J-", Mempool.Size_class); ("H-", Mempool.Thread_arena) ]
      in
      let curves =
        List.concat_map
          (fun (prefix, strategy) ->
            [
              curve (prefix ^ "TMHP") (fun ~threads ->
                  build
                    (static ~strategy ~window:(list_window ~threads) Spec.Dlist
                       Structs.Mode.Tmhp));
              curve (prefix ^ "RR-XO") (fun ~threads ->
                  build
                    (static ~strategy ~window:(list_window ~threads) Spec.Dlist
                       (Structs.Mode.Rr_kind (module Rr.Xo))));
            ])
          strategies
      in
      run_panel p
        ~title:
          (Printf.sprintf
             "Figure 5: allocator impact, doubly linked list, 9-bit keys, %d%% lookups"
             lookup_pct)
        ~curves ~spec_of)
    [ 0; 98 ]

(* ---- Figure 6: internal BST ---- *)

let figure_6 p =
  let ops = ops_per_thread p in
  (* the paper uses 8- and 21-bit keys; 21-bit prefill (1M keys) is scaled
     down in quick mode to keep single-core runs tractable *)
  let big_bits = if p.quick then 14 else 21 in
  List.iter
    (fun key_bits ->
      List.iter
        (fun lookup_pct ->
          let spec_of ~threads =
            Workload.spec ~key_bits ~lookup_pct ~threads ~ops_per_thread:ops ()
          in
          let curves =
            [ bst_int_curve Structs.Mode.Htm ~window_of:tree_window ]
            @ List.map
                (fun (name, kind) ->
                  curve name (fun ~threads ->
                      build
                        (static ~window:(tree_window ~threads) Spec.Bst_int
                           kind)))
                Factories.rr_kinds
          in
          run_panel p
            ~title:
              (Printf.sprintf "Figure 6: internal BST, %d-bit keys, %d%% lookups"
                 key_bits lookup_pct)
            ~curves ~spec_of)
        [ 0; 50; 80 ])
    [ 8; big_bits ]

(* ---- Figure 7: external BST ---- *)

let figure_7 p =
  let ops = ops_per_thread p in
  let key_bits = if p.quick then 14 else 21 in
  let spec_of ~threads =
    Workload.spec ~key_bits ~lookup_pct:50 ~threads ~ops_per_thread:ops ()
  in
  let curves =
    [
      curve "LFLeak-NM" (fun ~threads:_ -> (Factories.nm_tree ()).Factories.make ());
      bst_ext_curve Structs.Mode.Htm ~window_of:tree_window;
      bst_ext_curve Structs.Mode.Tmhp ~window_of:tree_window;
    ]
    @ List.map
        (fun (name, kind) ->
          curve name (fun ~threads ->
              build (static ~window:(tree_window ~threads) Spec.Bst_ext kind)))
        Factories.rr_kinds
  in
  run_panel p
    ~title:
      (Printf.sprintf "Figure 7: external BST, %d-bit keys, 50%% lookups"
         key_bits)
    ~curves ~spec_of

(* ---- reclamation footprint comparison (Sec. 5 text) ---- *)

let reclaim_bench p =
  let ops = ops_per_thread p in
  let threads = List.fold_left max 1 p.threads_list in
  let spec =
    Workload.spec ~key_bits:8 ~lookup_pct:20 ~threads ~ops_per_thread:ops ()
  in
  let rows =
    List.map
      (fun (label, make) ->
        let h : Store.t = make () in
        let r = Driver.run ~verify:p.verify spec h in
        (label, r))
      (([
          ("RR-V", Structs.Mode.Rr_kind (module Rr.V));
          ("RR-XO", Structs.Mode.Rr_kind (module Rr.Xo));
          ("TMHP", Structs.Mode.Tmhp);
          ("EBR", Structs.Mode.Ebr);
          ("REF", Structs.Mode.Ref);
        ]
       |> List.map (fun (label, kind) ->
              (label, fun () -> build (static ~window:8 Spec.Slist kind))))
      @ [
          ("LFHP", fun () -> (Factories.lf_list `Hp).Factories.make ());
          ("LFLeak", fun () -> (Factories.lf_list `Leak).Factories.make ());
        ])
  in
  Printf.printf "\n== Reclamation footprint (singly linked list, %d threads) ==\n"
    threads;
  Printf.printf "%-8s %14s %14s %14s %14s\n" "impl" "ops/s" "max backlog"
    "leaked" "live after";
  List.iter
    (fun (label, (r : Driver.result)) ->
      let fmt_opt = function Some v -> string_of_int v | None -> "-" in
      Printf.printf "%-8s %14.0f %14s %14s %14s\n" label r.Driver.throughput
        (fmt_opt r.Driver.max_backlog)
        (fmt_opt r.Driver.leaked)
        (fmt_opt r.Driver.pool_live))
    rows;
  print_newline ()

(* ---- ablations called out in DESIGN.md ---- *)

let ablation_bench p =
  let ops = ops_per_thread p in
  let threads = List.fold_left max 1 p.threads_list in
  let spec =
    Workload.spec ~key_bits:8 ~lookup_pct:33 ~threads ~ops_per_thread:ops ()
  in
  let throughput h =
    (Driver.run ~verify:p.verify spec h).Driver.throughput
  in
  Printf.printf "\n== Ablations (%d threads, 8-bit keys, 33%% lookups) ==\n"
    threads;
  (* scatter *)
  List.iter
    (fun scatter ->
      let h =
        build
          (static ~window:8 ~scatter Spec.Slist
             (Structs.Mode.Rr_kind (module Rr.Xo)))
      in
      Printf.printf "slist RR-XO scatter=%-5b          %12.0f ops/s\n" scatter
        (throughput h))
    [ true; false ];
  (* dlist split unlink *)
  List.iter
    (fun split ->
      let h =
        build
          (static ~window:8 ~split_unlink:split Spec.Dlist
             (Structs.Mode.Rr_kind (module Rr.Fa)))
      in
      Printf.printf "dlist RR-FA split_unlink=%-5b     %12.0f ops/s\n" split
        (throughput h))
    [ true; false ];
  (* RR-DM eager vs lazy bucket unlink *)
  List.iter
    (fun eager ->
      let rr_config = { Rr.Config.default with dm_eager_unlink = eager } in
      let h =
        build
          (static ~window:8 ~rr_config Spec.Slist
             (Structs.Mode.Rr_kind (module Rr.Dm)))
      in
      Printf.printf "slist RR-DM eager_unlink=%-5b     %12.0f ops/s\n" eager
        (throughput h))
    [ true; false ];
  (* hash set extension (paper Sec. 6): reservations across bucket chains *)
  List.iter
    (fun (label, kind) ->
      let h = build (static ~buckets:16 ~window:8 Spec.Hashset kind) in
      Printf.printf "hashset %-24s %12.0f ops/s\n" label (throughput h))
    [
      ("RR-V", Structs.Mode.Rr_kind (module Rr.V));
      ("RR-FA", Structs.Mode.Rr_kind (module Rr.Fa));
      ("HTM", Structs.Mode.Htm);
      ("TMHP", Structs.Mode.Tmhp);
      ("EBR", Structs.Mode.Ebr);
    ];
  (* serial-fallback threshold (the GCC retry knob) *)
  List.iter
    (fun attempts ->
      let h = build (Spec.v ~max_attempts:attempts Spec.Slist Structs.Mode.Htm) in
      Printf.printf "slist HTM max_attempts=%-2d         %12.0f ops/s\n"
        attempts (throughput h))
    [ 1; 2; 4; 8; 16 ];
  print_newline ()
