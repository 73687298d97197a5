(* Thread-sweep scalability baseline (`main.exe scaling`).

   The paper's whole argument is that hand-over-hand transactions scale
   where single-transaction traversals do not (Figs. 2-7), so the repo
   needs a reproducible perf trajectory: one sweep over 1..N domains x
   {slist, bst-int, skiplist} x the RR variants x lookup mixes, written to
   [BENCH_scaling.json] under the [hohtx-bench/1] schema so successive
   builds can be diffed mechanically. `main.exe scaling-smoke` (the
   @bench-smoke dune alias) runs a 2-thread miniature of the same sweep
   and validates the emitted file against the schema. *)

open Harness
module Spec = Factories.Spec
module Json = Telemetry.Json

let schema = "hohtx-bench/1"
let default_out = "BENCH_scaling.json"

type params = {
  quick : bool;
  verify : bool;
  threads_list : int list;
  json_stdout : bool;  (** also print the report to stdout *)
  out : string;  (** path of the emitted JSON file *)
}

(* One swept configuration: a structure/kind/mix triple; the thread count
   varies along the curve. Key ranges are sized so the default prefill
   (50%) yields structures long/deep enough for multi-window traversals. *)
type config = {
  structure : Spec.structure;
  kind : Structs.Mode.kind;
  lookup_pct : int;
  key_bits : int;
  adaptive : bool;  (** contention-adaptive window controller *)
}

let structure_key_bits = function
  | Spec.Slist | Spec.Dlist -> 8
  | Spec.Bst_int | Spec.Bst_ext -> 12
  | Spec.Skiplist -> 10
  | Spec.Hashset -> 10

let sweep_configs ?(adaptives = [ false ]) ~structures ~kinds ~mixes () =
  List.concat_map
    (fun structure ->
      List.concat_map
        (fun (_, kind) ->
          List.concat_map
            (fun lookup_pct ->
              List.map
                (fun adaptive ->
                  {
                    structure;
                    kind;
                    lookup_pct;
                    key_bits = structure_key_bits structure;
                    adaptive;
                  })
                adaptives)
            mixes)
        kinds)
    structures

let run_point p (c : config) ~ops_per_thread ~threads =
  let window = Factories.best_window ~threads in
  let handle =
    (Factories.make (Spec.v ~window ~adaptive:c.adaptive c.structure c.kind))
      .Factories.make ()
  in
  let spec =
    Workload.spec ~key_bits:c.key_bits ~lookup_pct:c.lookup_pct ~threads
      ~ops_per_thread ()
  in
  let r = Driver.run ~verify:p.verify spec handle in
  (match r.Driver.verdict with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "!! scaling [%s %s %d%%]: %s\n%!"
        (Spec.structure_name c.structure)
        (Structs.Mode.kind_name c.kind)
        c.lookup_pct e);
  let tm = r.Driver.tm in
  Json.Obj
    [
      ("threads", Json.Int threads);
      ("window", Json.Int window);
      ("throughput", Json.Float r.Driver.throughput);
      ("elapsed_s", Json.Float r.Driver.elapsed_s);
      ("total_ops", Json.Int r.Driver.total_ops);
      ("started", Json.Int (Tm.Stats.started tm));
      ("aborts", Json.Int (Tm.Stats.total_aborts tm));
      ("abort_rate", Json.Float (Driver.abort_rate r));
      ("fallbacks", Json.Int (Tm.Stats.fallbacks tm));
      ("fallbacks_middle", Json.Int (Tm.Stats.fallbacks_middle tm));
      ("fallbacks_serial", Json.Int (Tm.Stats.fallbacks_serial tm));
      ("extensions", Json.Int (Tm.Stats.extensions tm));
      ("ext_fails", Json.Int (Tm.Stats.ext_fails tm));
      ("verified", Json.Bool (r.Driver.verdict = Ok ()));
    ]

let run_config p c ~ops_per_thread =
  let points =
    List.map
      (fun threads -> run_point p c ~ops_per_thread ~threads)
      p.threads_list
  in
  Printf.printf "%-9s %-6s %3d%% lookups%s:%s\n%!"
    (Spec.structure_name c.structure)
    (Structs.Mode.kind_name c.kind)
    c.lookup_pct
    (if c.adaptive then " adaptive " else " ")
    (String.concat ""
       (List.map2
          (fun threads pt ->
            let tput =
              match Json.member "throughput" pt with
              | Some (Json.Float f) -> f
              | _ -> 0.
            in
            Printf.sprintf "  %dT %.0f/s" threads tput)
          p.threads_list points));
  Json.Obj
    [
      ("structure", Json.String (Spec.structure_name c.structure));
      ("kind", Json.String (Structs.Mode.kind_name c.kind));
      ("lookup_pct", Json.Int c.lookup_pct);
      ("key_bits", Json.Int c.key_bits);
      ("adaptive", Json.Bool c.adaptive);
      ("ops_per_thread", Json.Int ops_per_thread);
      ("points", Json.List points);
    ]

(* The sanitizer probe: one representative configuration run three ways —
   a plain baseline (TxSan hooks compiled in but disabled, i.e. the
   seed-equivalent path plus one relaxed bool load per hook), a paired
   off-mode sample (so "within noise" compares two runs of the *same*
   code), and a TxSan-armed run in [Count] mode. Off-mode must stay within
   noise of the baseline; the on-mode slowdown is recorded, not bounded —
   precision is allowed to cost. *)
let san_probe p (c : config) ~ops_per_thread =
  (* Floor the probe's op count: the noise bound below needs runs long
     enough that scheduler jitter doesn't dominate, even in smoke mode. *)
  let ops_per_thread = max 2_000 ops_per_thread in
  let threads = List.fold_left max 1 p.threads_list in
  let point ~san =
    let window = Factories.best_window ~threads in
    let handle =
      (Factories.make (Spec.v ~window ~adaptive:c.adaptive c.structure c.kind))
        .Factories.make ()
    in
    let spec =
      Workload.spec ~key_bits:c.key_bits ~lookup_pct:c.lookup_pct ~threads
        ~ops_per_thread ()
    in
    Driver.run ~verify:p.verify ~san spec handle
  in
  let base = point ~san:false in
  let off = point ~san:false in
  let on = point ~san:true in
  let violations =
    match on.Driver.san with
    | Some per_rule -> List.fold_left (fun a (_, n) -> a + n) 0 per_rule
    | None -> 0
  in
  let off_vs_baseline = off.Driver.throughput /. base.Driver.throughput in
  let on_slowdown = base.Driver.throughput /. on.Driver.throughput in
  Printf.printf
    "san probe  %-9s %-6s %dT: off/base %.2f, on-mode slowdown %.1fx, \
     violations %d\n%!"
    (Spec.structure_name c.structure)
    (Structs.Mode.kind_name c.kind)
    threads off_vs_baseline on_slowdown violations;
  Json.Obj
    [
      ("structure", Json.String (Spec.structure_name c.structure));
      ("kind", Json.String (Structs.Mode.kind_name c.kind));
      ("lookup_pct", Json.Int c.lookup_pct);
      ("threads", Json.Int threads);
      ("ops_per_thread", Json.Int ops_per_thread);
      ("baseline_throughput", Json.Float base.Driver.throughput);
      ("off_throughput", Json.Float off.Driver.throughput);
      ("on_throughput", Json.Float on.Driver.throughput);
      ("off_vs_baseline", Json.Float off_vs_baseline);
      ("on_slowdown", Json.Float on_slowdown);
      ("violations", Json.Int violations);
    ]

(* The raw-speed probe matrix: the hot-traversal list configuration run
   once per point of the optimization grid — the library default (the
   contention-adaptive window controller), the paper's static window, the
   middle lock path and mempool magazines on top of the default, and both
   together — plus a paired rerun of the default so "within noise"
   compares two runs of the same code. The middle path and magazines are
   compiled into every binary and default off, so the default point
   doubles as the guard that carrying them costs nothing. *)
let opt_variants =
  [
    ("default", (true, false, false));
    ("static", (false, false, false));
    ("mid", (true, true, false));
    ("mag", (true, false, true));
    ("all-on", (true, true, true));
  ]

let opt_probe p ~ops_per_thread =
  let ops_per_thread = max 2_000 ops_per_thread in
  let threads = List.fold_left max 1 p.threads_list in
  let window = Factories.best_window ~threads in
  let kind = Structs.Mode.Rr_kind (module Rr.V : Rr.S) in
  (* Hot-traversal mix: a small key range concentrates the traffic so
     conflicts are real, and [max_attempts = 1] (the soak-test convention)
     sends every repeated conflict down the fallback ladder — the
     middle path's effect on serial fallbacks is only measurable when
     the default configuration actually takes that ladder. *)
  let lookup_pct = 33 and key_bits = 5 and max_attempts = 1 in
  let point ~adaptive ~middle ~magazines =
    (* Built directly (not via [Factories.make]) so the pool's magazine
       counters stay readable after the run. *)
    let l =
      Structs.Hoh_list.create ~mode:kind ~window ~adaptive ~middle ~magazines
        ~max_attempts ()
    in
    let spec =
      Workload.spec ~key_bits ~lookup_pct ~threads ~ops_per_thread ()
    in
    let r = Driver.run ~verify:p.verify spec (Store.of_hoh_list l) in
    (r, Structs.Hoh_list.pool_stats l)
  in
  (* One discarded warm-up run: the first driver run on a fresh binary
     pays allocator/GC cold-start costs that would otherwise land
     entirely on the baseline sample and masquerade as noise. *)
  ignore (point ~adaptive:true ~middle:false ~magazines:false);
  let base, _ = point ~adaptive:true ~middle:false ~magazines:false in
  let runs =
    List.map
      (fun (name, knobs) ->
        let adaptive, middle, magazines = knobs in
        (name, knobs, point ~adaptive ~middle ~magazines))
      opt_variants
  in
  let tput name =
    let _, _, (r, _) = List.find (fun (n, _, _) -> n = name) runs in
    r.Driver.throughput
  in
  let serial name =
    let _, _, (r, _) = List.find (fun (n, _, _) -> n = name) runs in
    Tm.Stats.fallbacks_serial r.Driver.tm
  in
  let default = tput "default" in
  let off_vs_baseline = default /. base.Driver.throughput in
  let default_vs_static = default /. tput "static" in
  let all_on_vs_default = tput "all-on" /. default in
  let middle_reduces_serial = serial "mid" < serial "default" in
  Printf.printf
    "opt probe  slist     RR-V   %dT: default/base %.2f, default/static \
     %.2fx, all-on/default %.2fx, serial fallbacks %d -> %d under middle\n%!"
    threads off_vs_baseline default_vs_static all_on_vs_default
    (serial "default") (serial "mid");
  let variant_json (name, (adaptive, middle, magazines), (r, pool)) =
    let spec =
      Spec.v ~window ~adaptive ~middle ~magazines ~max_attempts Spec.Slist kind
    in
    let tm = r.Driver.tm in
    Json.Obj
      [
        ("variant", Json.String name);
        ("label", Json.String (Spec.label spec));
        ("adaptive", Json.Bool adaptive);
        ("middle", Json.Bool middle);
        ("magazines", Json.Bool magazines);
        ("throughput", Json.Float r.Driver.throughput);
        ("aborts", Json.Int (Tm.Stats.total_aborts tm));
        ("fallbacks_middle", Json.Int (Tm.Stats.fallbacks_middle tm));
        ("fallbacks_serial", Json.Int (Tm.Stats.fallbacks_serial tm));
        ("magazine_hits", Json.Int pool.Mempool.Stats.magazine_hits);
        ("magazine_misses", Json.Int pool.Mempool.Stats.magazine_misses);
        ("vs_default", Json.Float (r.Driver.throughput /. default));
        ("verified", Json.Bool (r.Driver.verdict = Ok ()));
      ]
  in
  Json.Obj
    [
      ("structure", Json.String (Spec.structure_name Spec.Slist));
      ("kind", Json.String (Structs.Mode.kind_name kind));
      ("lookup_pct", Json.Int lookup_pct);
      ("key_bits", Json.Int key_bits);
      ("max_attempts", Json.Int max_attempts);
      ("threads", Json.Int threads);
      ("ops_per_thread", Json.Int ops_per_thread);
      ("baseline_throughput", Json.Float base.Driver.throughput);
      ("off_vs_baseline", Json.Float off_vs_baseline);
      ("default_vs_static", Json.Float default_vs_static);
      ("all_on_vs_default", Json.Float all_on_vs_default);
      ("middle_reduces_serial", Json.Bool middle_reduces_serial);
      ("variants", Json.List (List.map variant_json runs));
    ]

let report p ~mode ~configs ~ops_per_thread =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("bench", Json.String "scaling");
      ("mode", Json.String mode);
      ( "threads",
        Json.List (List.map (fun t -> Json.Int t) p.threads_list) );
      ( "configs",
        Json.List (List.map (run_config p ~ops_per_thread) configs) );
      ("san", san_probe p (List.hd configs) ~ops_per_thread);
      ("opt", opt_probe p ~ops_per_thread);
    ]

let write_report ~out js =
  let oc = open_out out in
  output_string oc (Json.to_string js);
  output_char oc '\n';
  close_out oc

(* ---- schema validation (used by the smoke alias and tests) ---- *)

let validate js =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let field name conv o =
    match Option.bind (Json.member name o) conv with
    | Some v -> Ok v
    | None -> err "missing or ill-typed field %S" name
  in
  let* s = field "schema" Json.to_string_opt js in
  let* () = if s = schema then Ok () else err "schema %S, wanted %S" s schema in
  let* _ = field "bench" Json.to_string_opt js in
  let* _ = field "mode" Json.to_string_opt js in
  let* san = field "san" Option.some js in
  let* off = field "off_throughput" Json.to_float san in
  let* () = if off > 0. then Ok () else err "san off_throughput <= 0" in
  let* on = field "on_throughput" Json.to_float san in
  let* () = if on > 0. then Ok () else err "san on_throughput <= 0" in
  let* ratio = field "off_vs_baseline" Json.to_float san in
  let* () = if ratio > 0. then Ok () else err "san off_vs_baseline <= 0" in
  let* slow = field "on_slowdown" Json.to_float san in
  let* () = if slow > 0. then Ok () else err "san on_slowdown <= 0" in
  let* viols = field "violations" Json.to_int san in
  let* () = if viols >= 0 then Ok () else err "negative san violations" in
  let* opt = field "opt" Option.some js in
  let* obase = field "baseline_throughput" Json.to_float opt in
  let* () = if obase > 0. then Ok () else err "opt baseline_throughput <= 0" in
  let* oratio = field "off_vs_baseline" Json.to_float opt in
  let* () = if oratio > 0. then Ok () else err "opt off_vs_baseline <= 0" in
  let* dvs = field "default_vs_static" Json.to_float opt in
  let* () = if dvs > 0. then Ok () else err "opt default_vs_static <= 0" in
  let* _ = field "all_on_vs_default" Json.to_float opt in
  let* _ = field "middle_reduces_serial" Json.to_bool opt in
  let* variants = field "variants" Json.to_list opt in
  let* () =
    if List.length variants = List.length opt_variants then Ok ()
    else err "opt probe variant set incomplete"
  in
  let* () =
    List.fold_left
      (fun acc v ->
        let* () = acc in
        let* _ = field "variant" Json.to_string_opt v in
        let* _ = field "label" Json.to_string_opt v in
        let* tput = field "throughput" Json.to_float v in
        let* () = if tput > 0. then Ok () else err "opt throughput <= 0" in
        let* fm = field "fallbacks_middle" Json.to_int v in
        let* () =
          if fm >= 0 then Ok () else err "negative fallbacks_middle"
        in
        let* fs = field "fallbacks_serial" Json.to_int v in
        let* () =
          if fs >= 0 then Ok () else err "negative fallbacks_serial"
        in
        let* mh = field "magazine_hits" Json.to_int v in
        let* () = if mh >= 0 then Ok () else err "negative magazine_hits" in
        let* mm = field "magazine_misses" Json.to_int v in
        let* () =
          if mm >= 0 then Ok () else err "negative magazine_misses"
        in
        Ok ())
      (Ok ()) variants
  in
  let* configs = field "configs" Json.to_list js in
  let* () = if configs = [] then err "empty configs" else Ok () in
  List.fold_left
    (fun acc c ->
      let* () = acc in
      let* _ = field "structure" Json.to_string_opt c in
      let* _ = field "kind" Json.to_string_opt c in
      let* _ = field "lookup_pct" Json.to_int c in
      let* _ = field "key_bits" Json.to_int c in
      let* _ = field "adaptive" Json.to_bool c in
      let* _ = field "ops_per_thread" Json.to_int c in
      let* points = field "points" Json.to_list c in
      let* () = if points = [] then err "config with no points" else Ok () in
      List.fold_left
        (fun acc pt ->
          let* () = acc in
          let* threads = field "threads" Json.to_int pt in
          let* () = if threads >= 1 then Ok () else err "threads < 1" in
          let* tput = field "throughput" Json.to_float pt in
          let* () = if tput > 0. then Ok () else err "throughput <= 0" in
          let* rate = field "abort_rate" Json.to_float pt in
          let* () =
            if rate >= 0. then Ok () else err "negative abort_rate"
          in
          let* _ = field "aborts" Json.to_int pt in
          let* _ = field "fallbacks" Json.to_int pt in
          let* fm = field "fallbacks_middle" Json.to_int pt in
          let* () =
            if fm >= 0 then Ok () else err "negative fallbacks_middle"
          in
          let* fs = field "fallbacks_serial" Json.to_int pt in
          let* () =
            if fs >= 0 then Ok () else err "negative fallbacks_serial"
          in
          let* ext = field "extensions" Json.to_int pt in
          let* () = if ext >= 0 then Ok () else err "negative extensions" in
          let* ef = field "ext_fails" Json.to_int pt in
          let* () = if ef >= 0 then Ok () else err "negative ext_fails" in
          Ok ())
        (Ok ()) points)
    (Ok ()) configs

(* ---- entry points ---- *)

let run p =
  let ops_per_thread = if p.quick then 2_000 else 20_000 in
  let configs =
    sweep_configs
      ~adaptives:[ false; true ]
      ~structures:[ Spec.Slist; Spec.Bst_int; Spec.Skiplist ]
      ~kinds:Factories.rr_kinds ~mixes:[ 33; 80 ] ()
  in
  Printf.printf
    "scaling sweep: %d configs x threads {%s}, %d ops/thread -> %s\n%!"
    (List.length configs)
    (String.concat "," (List.map string_of_int p.threads_list))
    ops_per_thread p.out;
  let js =
    report p
      ~mode:(if p.quick then "quick" else "full")
      ~configs ~ops_per_thread
  in
  write_report ~out:p.out js;
  if p.json_stdout then print_endline (Json.to_string js);
  Printf.printf "wrote %s\n%!" p.out

let smoke () =
  let p =
    {
      quick = true;
      verify = true;
      threads_list = [ 1; 2 ];
      json_stdout = false;
      out = default_out;
    }
  in
  let configs =
    sweep_configs
      ~adaptives:[ false; true ]
      ~structures:[ Spec.Slist ]
      ~kinds:
        [
          ("RR-V", Structs.Mode.Rr_kind (module Rr.V));
          ("RR-XO", Structs.Mode.Rr_kind (module Rr.Xo));
        ]
      ~mixes:[ 33 ] ()
  in
  let js = report p ~mode:"smoke" ~configs ~ops_per_thread:300 in
  write_report ~out:p.out js;
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("bench-smoke: " ^ m);
        exit 1)
      fmt
  in
  let ic = open_in p.out in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  (match Json.of_string text with
  | Error e -> fail "emitted JSON does not parse: %s" e
  | Ok parsed -> (
      if not (Json.equal parsed js) then
        fail "JSON round-trip changed the value";
      match validate parsed with
      | Error e -> fail "schema validation failed: %s" e
      | Ok () -> ()));
  (* Off-mode must be within noise of the baseline: an accidentally-armed
     sanitizer serializes every access on a global mutex (5-10x), while the
     legitimate hook cost is one relaxed bool load. The bound is loose
     because smoke runs are short and containers are noisy. *)
  (match Option.bind (Json.member "san" js) (Json.member "off_vs_baseline") with
  | Some (Json.Float ratio) when ratio < 0.33 ->
      fail "sanitizer-off throughput fell out of noise (ratio %.2f)" ratio
  | Some (Json.Float _) -> ()
  | _ -> fail "san probe missing off_vs_baseline");
  (* Same bound for the optimization knobs: the middle path and magazines
     are compiled into the binary but disabled in the default point, so
     falling out of noise against the paired baseline rerun means a
     disabled knob has a hot-path cost. *)
  (match Option.bind (Json.member "opt" js) (Json.member "off_vs_baseline") with
  | Some (Json.Float ratio) when ratio < 0.33 ->
      fail "optimizations-off throughput fell out of noise (ratio %.2f)" ratio
  | Some (Json.Float _) -> ()
  | _ -> fail "opt probe missing off_vs_baseline");
  Printf.printf "bench-smoke OK: %s validates against %s\n" p.out schema
