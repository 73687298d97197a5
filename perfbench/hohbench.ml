(* The repository benchmark.

     hohbench --workload W --seed N --seconds S --trace 0|1 [--rev R]

   Workloads (closed loop: each worker domain issues its next request only
   after the previous call returned):

   - list-read: singly-linked list, 2^10 keys, 80% lookups, uniform keys;
   - tree-update: internal BST, 2^16 keys, 20% lookups, uniform keys;
   - kv-zipf: the sharded service over two trees, 2^14 keys, Zipf 0.99,
     90% gets, 7% inserts/removes, 3% two-key cross-shard 2PC multis.

   All inputs derive from the seed. With --trace 0 the run sets the target
   up several times, measures S seconds in rounds with tracing off, and
   prints the end-to-end metrics. With --trace 1 it runs the layer ladder,
   an untraced and a traced run of S/2 seconds each, and prints the
   per-layer metrics. Every run then checks correctness: size accounting,
   the structural checks, no leaked pool node after the drain, and a
   serializability pass over a fully logged run. The last line of stdout
   is the result object; the exit code is 1 when any check failed. *)

module Store = Harness.Store
module Workload = Harness.Workload
module Serial_check = Harness.Serial_check
module Hist = Telemetry.Histogram

let now = Telemetry.now_ns

(* ---- requests ---- *)

let k_get = 0
let k_insert = 1
let k_remove = 2
let k_multi = 3

type gen = {
  rng : Workload.Rng.t;
  wspec : Workload.spec;
  zipf : Workload.Zipf.t option;
  shard_of : int -> int;
  mutable k1 : int;
  mutable k2 : int;
}

let gen_make w ~seed ~thread ~zipf ~shard_of =
  {
    rng = Workload.Rng.create ~seed ~thread;
    wspec = Target.wspec w ~seed;
    zipf;
    shard_of;
    k1 = 0;
    k2 = 0;
  }

let next g =
  match g.zipf with
  | None -> (
      let op, k = Workload.next_op g.rng g.wspec in
      g.k1 <- k;
      match op with
      | Workload.Lookup -> k_get
      | Workload.Insert -> k_insert
      | Workload.Remove -> k_remove)
  | Some z ->
      let roll = Workload.Rng.int g.rng 100 in
      g.k1 <- Workload.Zipf.draw z g.rng;
      if roll < Target.lookup_pct Target.Kv_zipf then k_get
      else if roll < 100 - Target.multi_pct then
        if Workload.Rng.int g.rng 2 = 0 then k_insert else k_remove
      else begin
        (* a transfer between two keys on different shards *)
        let s = g.shard_of g.k1 in
        let rec other () =
          let k = Workload.Zipf.draw z g.rng in
          if g.shard_of k = s then other () else k
        in
        g.k2 <- other ();
        k_multi
      end

(* Outcome of one call, for size accounting. *)
type change = Nothing | Added | Dropped | Moved | Refused

let change_of (r : Store.reply) =
  match r.Store.outcome with
  | Store.Inserted -> Added
  | Store.Removed -> Dropped
  | Store.Overload -> Refused
  | _ -> Nothing

let call (t : Target.t) ~thread kind g ops =
  if kind = k_get then change_of (Target.get t ~thread g.k1)
  else if kind = k_insert then change_of (Target.insert t ~thread g.k1)
  else if kind = k_remove then change_of (Target.remove t ~thread g.k1)
  else
    match t with
    | Target.Store _ -> invalid_arg "multi on a store"
    | Target.Service svc -> (
        match Service.multi svc ~thread ops with
        | Service.Committed rs ->
            if
              rs.(0).Store.outcome = Store.Removed
              && rs.(1).Store.outcome = Store.Inserted
            then Moved
            else Refused
        | Service.Aborted _ -> Nothing)

(* ---- closed-loop workers ---- *)

type worker = {
  round_ops : int array;  (* [0] warm-up, [1..rounds] measured rounds *)
  round_first : int array;
      (* [r]: index of round r's first sample; [rounds + 1]: sample count *)
  samples : Samples.t;
  mutable failed : int;
  mutable error : string option;
  mutable added : int;
  mutable dropped : int;
  mutable stats : Tm.Stats.t;
  mutable minor_words : float;
}

type run_cfg = {
  w : Target.workload;
  seed : int;
  domains : int;
  zipf : Workload.Zipf.t option;
}

let shard_of_target = function
  | Target.Service svc -> Service.shard_of_key svc
  | Target.Store _ -> fun _ -> 0

(* [f d tid] on [cfg.domains] domains, in a list by [d]. The calling
   domain, registered as TM thread [thread], is domain 0: a run has
   exactly [cfg.domains] domains, and none of them idles. *)
let on_domains cfg ~thread f =
  let doms =
    List.init (cfg.domains - 1) (fun i ->
        Domain.spawn (fun () -> Tm.Thread.with_registered (f (i + 1))))
  in
  let r0 = f 0 thread in
  r0 :: List.map Domain.join doms

(* All domains check in, then start together. *)
let start_together count =
  Atomic.decr count;
  while Atomic.get count > 0 do
    Domain.cpu_relax ()
  done

(* The round clock, driven by worker 0 between its own requests. *)
type clock = {
  marks : int array;  (* [r - 1]: start of round r; [rounds]: end *)
  warm_ns : int;
  round_ns : int;
  at_start : unit -> unit;
  at_end : unit -> unit;
}

let worker cfg target ~tid ~d ~phase ~rounds ~clock ~samples:shared_samples
    ~spans:shared_spans =
  let samples = Samples.local shared_samples
  and spans = Option.map Spans.local shared_spans in
  let g =
    gen_make cfg.w ~seed:cfg.seed ~thread:(d + 1) ~zipf:cfg.zipf
      ~shard_of:(shard_of_target target)
  in
  let w =
    {
      round_ops = Array.make (rounds + 1) 0;
      round_first = Array.make (rounds + 2) 0;
      samples;
      failed = 0;
      error = None;
      added = 0;
      dropped = 0;
      stats = Tm.Stats.create ();
      minor_words = 0.;
    }
  in
  let measuring = ref false and minor0 = ref 0. in
  let deadline =
    ref (match clock with Some c -> now () + c.warm_ns | None -> max_int)
  in
  let p = ref (Atomic.get phase) and seen = ref 0 in
  while !p <= rounds do
    while !seen < !p do
      incr seen;
      w.round_first.(!seen) <- Samples.length samples
    done;
    if !p >= 1 && not !measuring then begin
      (* the first measured request: start this domain's counters *)
      measuring := true;
      Tm.Stats.reset (Tm.Thread.stats ());
      if Telemetry.enabled () then begin
        let s = Telemetry.slot tid in
        Hist.reset s.Telemetry.attempts;
        Hist.reset s.Telemetry.serial
      end;
      minor0 := Gc.minor_words ()
    end;
    let req_start = now () in
    let kind = next g in
    let ops =
      if kind = k_multi then [| Store.Remove g.k1; Store.Insert g.k2 |]
      else [||]
    in
    let call_start = now () in
    let eff =
      match call target ~thread:tid kind g ops with
      | e -> e
      | exception e ->
          if w.error = None then w.error <- Some (Printexc.to_string e);
          Refused
    in
    let call_end = now () in
    (match eff with
    | Nothing -> ()
    | Added -> w.added <- w.added + 1
    | Dropped -> w.dropped <- w.dropped + 1
    | Moved ->
        w.added <- w.added + 1;
        w.dropped <- w.dropped + 1
    | Refused -> w.failed <- w.failed + 1);
    w.round_ops.(!p) <- w.round_ops.(!p) + 1;
    if !measuring then begin
      Samples.record samples
        (if kind = k_get then Samples.Read
         else if kind = k_multi then Samples.Multi
         else Samples.Write)
        (call_end - call_start);
      match spans with
      | None -> ()
      | Some sp ->
          Spans.record sp ~kind ~req_start ~call_start ~call_end
            ~req_end:(now ())
    end;
    (match clock with
    | Some c when call_end >= !deadline ->
        let next = !p + 1 in
        Atomic.set phase next;
        c.marks.(next - 1) <- call_end;
        deadline := call_end + c.round_ns;
        if next = 1 then c.at_start ();
        if next = rounds + 1 then c.at_end ()
    | _ -> ());
    p := Atomic.get phase
  done;
  w.round_first.(rounds + 1) <- Samples.length samples;
  Samples.finish ~into:shared_samples samples;
  (match (spans, shared_spans) with
  | Some sp, Some into -> Spans.finish ~into sp
  | _ -> ());
  Target.finalize_thread target ~thread:tid;
  w.stats <- Tm.Stats.copy (Tm.Thread.stats ());
  w.minor_words <- Gc.minor_words () -. !minor0;
  w

type measured = {
  rates : float list;  (* each round's requests per second *)
  ops : int;  (* measured requests *)
  attempted : int;  (* every request issued, warm-up included *)
  workers : worker list;
  verdict : (unit, string) result;
}

(* Warm up, then measure [rounds] rounds of [round_s] seconds each on
   [target], which holds [initial] keys. Worker 0, the calling domain,
   keeps the round clock. [at_start] runs as the first measured round
   begins, [at_end] as the last one ends, while the other workers are
   still running. *)
let measure cfg target ~thread ~initial ~warm_s ~round_s ~rounds ~samples
    ~spans ~at_start ~at_end =
  let phase = Atomic.make 0 and start = Atomic.make cfg.domains in
  let marks = Array.make (rounds + 1) 0 in
  let ns s = int_of_float (s *. 1e9) in
  let workers =
    on_domains cfg ~thread (fun d tid ->
        start_together start;
        worker cfg target ~tid ~d ~phase ~rounds
          ~clock:
            (if d = 0 then
               Some
                 { marks; warm_ns = ns warm_s; round_ns = ns round_s; at_start; at_end }
             else None)
          ~samples:samples.(d)
          ~spans:(Option.map (fun s -> s.(d)) spans))
  in
  let sum f = List.fold_left (fun a w -> a + f w) 0 workers in
  let rates =
    List.init rounds (fun r ->
        float_of_int (sum (fun w -> w.round_ops.(r + 1)))
        /. (float_of_int (marks.(r + 1) - marks.(r)) /. 1e9))
  in
  let ops = sum (fun w -> Array.fold_left ( + ) 0 w.round_ops) in
  let expected_size =
    List.length initial + sum (fun w -> w.added) - sum (fun w -> w.dropped)
  in
  let verdict =
    match List.find_map (fun w -> w.error) workers with
    | Some e -> Error ("exception: " ^ e)
    | None -> Target.verify target ~expected_size
  in
  {
    rates;
    ops = ops - sum (fun w -> w.round_ops.(0));
    attempted = ops;
    workers;
    verdict;
  }

(* ---- serializability pass ---- *)

(* A fixed number of requests per domain on a fresh target, every reply
   logged with its commit stamp; multis log both sub-operations. The
   history must replay in stamp order against a sequential set. *)
let serial_pass cfg ~thread =
  let ops_per_domain =
    match cfg.w with
    | Target.List_read -> 10_000
    | Target.Tree_update | Target.Kv_zipf -> 50_000
  in
  let initial = Target.prefill_keys cfg.w ~seed:cfg.seed in
  let target = Target.build cfg.w ~seed:cfg.seed ~thread in
  let start = Atomic.make cfg.domains in
  let outs =
    on_domains cfg ~thread (fun d tid ->
        let g =
          gen_make cfg.w ~seed:cfg.seed ~thread:(d + 101) ~zipf:cfg.zipf
            ~shard_of:(shard_of_target target)
        in
        let log = ref [] and added = ref 0 and dropped = ref 0 in
        let add op key (r : Store.reply) =
          (match r.Store.outcome with
          | Store.Inserted -> incr added
          | Store.Removed -> incr dropped
          | _ -> ());
          log :=
            {
              Serial_check.op;
              key;
              result = Store.positive r.Store.outcome;
              earliest = r.Store.earliest;
              stamp = r.Store.stamp;
            }
            :: !log
        in
        let step () =
          let kind = next g in
          if kind = k_get then
            add Workload.Lookup g.k1 (Target.get target ~thread:tid g.k1)
          else if kind = k_insert then
            add Workload.Insert g.k1 (Target.insert target ~thread:tid g.k1)
          else if kind = k_remove then
            add Workload.Remove g.k1 (Target.remove target ~thread:tid g.k1)
          else
            match target with
            | Target.Store _ -> assert false
            | Target.Service svc -> (
                match
                  Service.multi svc ~thread:tid
                    [| Store.Remove g.k1; Store.Insert g.k2 |]
                with
                | Service.Committed rs ->
                    add Workload.Remove g.k1 rs.(0);
                    add Workload.Insert g.k2 rs.(1)
                | Service.Aborted _ -> ())
        in
        start_together start;
        let error =
          match
            for _ = 1 to ops_per_domain do
              step ()
            done
          with
          | () -> None
          | exception e -> Some ("exception: " ^ Printexc.to_string e)
        in
        Target.finalize_thread target ~thread:tid;
        (Array.of_list (List.rev !log), !added, !dropped, error))
  in
  let added = List.fold_left (fun a (_, n, _, _) -> a + n) 0 outs
  and dropped = List.fold_left (fun a (_, _, n, _) -> a + n) 0 outs in
  let verdict =
    match List.find_map (fun (_, _, _, e) -> e) outs with
    | Some e -> Error e
    | None -> (
        match
          Target.verify target
            ~expected_size:(List.length initial + added - dropped)
        with
        | Error _ as e -> e
        | Ok () -> (
            match
              Serial_check.check ~initial
                (List.map (fun (l, _, _, _) -> l) outs)
            with
            | Ok () -> Ok ()
            | Error e -> Error ("serializability: " ^ e)))
  in
  (cfg.domains * ops_per_domain, verdict)

(* ---- measurement helpers ---- *)

(* The run record and the spans go here, relative to the checkout root. *)
let out_dir = ".perfbench_out"

let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let gauge_sums group =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Telemetry.Gauges.sample) ->
      if s.group = group then
        List.iter
          (fun (k, v) ->
            Hashtbl.replace tbl k
              (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)))
          s.values)
    (Telemetry.Gauges.sample ());
  fun k -> Option.value ~default:0. (Hashtbl.find_opt tbl k)

let ratio a b = if b = 0. then 0. else a /. b

(* Quantile of a telemetry histogram, interpolated by rank inside its
   1/8-octave bucket instead of read as the bucket's lower bound. *)
let hist_quantile h q =
  let module J = Telemetry.Json in
  let rank = Float.max 1. (Float.ceil (q *. float_of_int (Hist.count h))) in
  let buckets =
    match J.member "buckets" (Hist.to_json h) with
    | Some (J.List bs) ->
        List.filter_map
          (function J.List [ J.Int lo; J.Int n ] -> Some (lo, n) | _ -> None)
          bs
    | _ -> []
  in
  let rec go below = function
    | [] -> float_of_int (Hist.max_value h)
    | (lo, n) :: _ when float_of_int (below + n) >= rank ->
        let hi = min (Hist.lower_bound (Hist.index_of lo + 1)) (Hist.max_value h) in
        float_of_int lo
        +. (float_of_int (hi - lo) *. (rank -. float_of_int below) /. float_of_int n)
    | (_, n) :: rest -> go (below + n) rest
  in
  go 0 buckets

(* Sample buffers hold at most this many requests per measured second per
   domain: several times the fastest workload's rate. *)
let samples_per_s = 600_000
let spans_per_s = 200_000

(* ---- the two kinds of run ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let us ns = float_of_int ns /. 1e3

(* An end-to-end run measures [epochs] instances, each built from its own
   seed derived from the run's seed, so one input's quirks (a hot key deep
   in its tree) weigh on an eighth of the run, not all of it. Each epoch
   sets its instance up repeatedly, until it has done so [min_setups]
   times and for [setup_budget_s] seconds, and measures the last one in
   rounds of half a second. *)
let epochs = 8
let min_setups = 2
let max_setups = 50
let setup_budget_s = 0.25
let round_s = 0.5

(* Host speed, recorded with each epoch so that a slow run can be told
   apart from a slow host: milliseconds for a fixed single-thread integer
   loop that touches no program code. *)
let host_probe_ms () =
  let t0 = now () in
  let x = ref 0 in
  for i = 1 to 5_000_000 do
    x := ((!x * 1103515245) + i) land 0xffffff
  done;
  ignore (Sys.opaque_identity !x);
  float_of_int (now () - t0) /. 1e6

let zipf_for w ~seed =
  match w with
  | Target.Kv_zipf ->
      Some
        (Workload.Zipf.create ~seed ~theta:Target.zipf_theta
           (1 lsl Target.key_bits w))
  | Target.List_read | Target.Tree_update -> None

let epoch_cfg cfg e =
  let seed = (cfg.seed * epochs) + e in
  { cfg with seed; zipf = zipf_for cfg.w ~seed }

(* Median over all rounds of the round's own quantile, so a burst of host
   noise moves one round, not the whole figure. *)
let round_quantiles runs cls qs =
  let per_round =
    List.concat_map
      (fun (r : measured) ->
        List.init (List.length r.rates) (fun i ->
            let a =
              Samples.sorted_ranges
                (List.map
                   (fun w ->
                     (w.samples, w.round_first.(i + 1), w.round_first.(i + 2)))
                   r.workers)
                cls
            in
            List.map (fun q -> us (Samples.quantile a q)) qs))
      runs
  in
  List.mapi
    (fun i _ -> Samples.median_float (List.map (fun l -> List.nth l i) per_round))
    qs

let end_to_end cfg ~seconds ~thread =
  let rounds =
    max 2 (int_of_float (seconds /. float_of_int epochs /. round_s))
  in
  let cap = int_of_float (seconds *. float_of_int samples_per_s) in
  let samples = Array.init cfg.domains (fun _ -> Samples.create cap) in
  let buffers = Array.fold_left (fun a s -> a + Samples.bytes s) 0 samples in
  let setup cfg =
    Gc.full_major ();
    let t0 = now () in
    let t = Target.build cfg.w ~seed:cfg.seed ~thread in
    (float_of_int (now () - t0) /. 1e9, t)
  in
  let rec setups cfg times total =
    let s, t = setup cfg in
    let times = s :: times and total = total +. s in
    let n = List.length times in
    if (n >= min_setups && total >= setup_budget_s) || n >= max_setups then
      (times, t)
    else setups cfg times total
  in
  let rss = ref 0 in
  let probes = ref [] in
  let run e =
    probes := host_probe_ms () :: !probes;
    let cfg = epoch_cfg cfg e in
    let times, target = setups cfg [] 0. in
    let r =
      measure cfg target ~thread
        ~initial:(Target.prefill_keys cfg.w ~seed:cfg.seed)
        ~warm_s:0.5 ~round_s ~rounds ~samples ~spans:None
        ~at_start:(fun () -> ())
        ~at_end:(fun () -> rss := max !rss (peak_rss_kb ()))
    in
    (times, r)
  in
  let runs = List.init epochs run in
  let measured = List.map snd runs in
  let setup_times = List.concat_map fst runs in
  let read = round_quantiles measured Samples.Read [ 0.5; 0.99 ]
  and write = round_quantiles measured Samples.Write [ 0.5; 0.99 ] in
  let rates = List.concat_map (fun (r : measured) -> r.rates) measured in
  let metrics =
    [
      m "throughput_ops_s" "ops/s" (Samples.median_float rates);
      m "read_p50_us" "us" (List.nth read 0);
      m "read_p99_us" "us" (List.nth read 1);
      m "write_p50_us" "us" (List.nth write 0);
      m "write_p99_us" "us" (List.nth write 1);
      m "setup_s" "s" (Samples.median_float setup_times);
      m "peak_rss_mb" "MB"
        (float_of_int ((1024 * !rss) - buffers) /. 1048576.);
    ]
  in
  let all = Array.to_list samples in
  let count cls = string_of_int (Samples.count all cls) in
  let info =
    [
      ("epochs", string_of_int epochs);
      ( "host_probe_ms",
        String.concat " " (List.rev_map (Printf.sprintf "%.2f") !probes) );
      ( "setup_s_range",
        Printf.sprintf "%.6f..%.6f"
          (List.fold_left Float.min Float.infinity setup_times)
          (List.fold_left Float.max 0. setup_times) );
      ("setups", string_of_int (List.length setup_times));
      ("rounds", string_of_int (epochs * rounds));
      ("round_s", Printf.sprintf "%g" round_s);
      ("round_ops_s", String.concat " " (List.map (Printf.sprintf "%.0f") rates));
      ("read_samples", count Samples.Read);
      ("write_samples", count Samples.Write);
      ("dropped_samples", string_of_int (Samples.dropped all));
    ]
    @
    match cfg.w with
    | Target.Kv_zipf ->
        let multi = round_quantiles measured Samples.Multi [ 0.5; 0.99 ] in
        [
          ("multi_samples", count Samples.Multi);
          ("multi_p50_us", Printf.sprintf "%.3f" (List.nth multi 0));
          ("multi_p99_us", Printf.sprintf "%.3f" (List.nth multi 1));
        ]
    | Target.List_read | Target.Tree_update -> []
  in
  (measured, metrics, info)

let per_layer cfg ~seconds ~thread =
  let ladder = Ladder.run ~seed:cfg.seed ~thread in
  let rung name = List.assoc name ladder in
  let half = seconds /. 2. and rounds = 3 in
  let warm_s = Float.max 0.5 (seconds /. 20.) in
  let initial = Target.prefill_keys cfg.w ~seed:cfg.seed in
  (* per-layer runs take no latency samples *)
  let no_samples () = Array.init cfg.domains (fun _ -> Samples.create 0) in
  let plain =
    measure cfg ~thread
      (Target.build cfg.w ~seed:cfg.seed ~thread)
      ~initial ~warm_s ~round_s:(half /. float_of_int rounds) ~rounds
      ~samples:(no_samples ()) ~spans:None
      ~at_start:(fun () -> ())
      ~at_end:(fun () -> ())
  in
  (* Gauges register at construction: switch telemetry on first. *)
  Telemetry.set_enabled true;
  Telemetry.Gauges.clear ();
  let target = Target.build cfg.w ~seed:cfg.seed ~thread in
  Telemetry.reset_slots ();
  let spans =
    Array.init cfg.domains (fun _ ->
        Spans.create (int_of_float (half *. float_of_int spans_per_s)))
  in
  let g0 = ref (fun _ -> 0.) and g0m = ref (fun _ -> 0.) in
  let svc0 = ref [] and svc1 = ref [] in
  let gc0 = ref (Gc.quick_stat ()) and gc1 = ref (Gc.quick_stat ()) in
  let svc_counters () =
    match target with Target.Service s -> Service.counters s | _ -> []
  in
  let traced =
    measure cfg target ~thread ~initial ~warm_s ~round_s:(half /. float_of_int rounds)
      ~rounds ~samples:(no_samples ()) ~spans:(Some spans)
      ~at_start:(fun () ->
        g0 := gauge_sums "rr";
        g0m := gauge_sums "mempool";
        svc0 := svc_counters ();
        gc0 := Gc.quick_stat ())
      ~at_end:(fun () ->
        svc1 := svc_counters ();
        gc1 := Gc.quick_stat ())
  in
  (* the target is drained: mempool live is the final live set *)
  let rr = gauge_sums "rr" and mp = gauge_sums "mempool" in
  Telemetry.set_enabled false;
  let plain_tput = Samples.median_float plain.rates
  and traced_tput = Samples.median_float traced.rates in
  let ops = float_of_int traced.ops in
  let per_op a = a /. ops and per_kop a = 1000. *. a /. ops in
  let tm = Tm.Stats.create () in
  List.iter (fun w -> Tm.Stats.add tm w.stats) traced.workers;
  let tmf f = float_of_int (f tm) in
  let attempts = Hist.create () and serial = Hist.create () in
  for tid = 0 to Telemetry.max_threads - 1 do
    let s = Telemetry.slot tid in
    Hist.merge ~into:attempts s.Telemetry.attempts;
    Hist.merge ~into:serial s.Telemetry.serial
  done;
  let d_rr k = rr k -. !g0 k and d_mp k = mp k -. !g0m k in
  let svc_delta k =
    float_of_int
      (Option.value ~default:0 (List.assoc_opt k !svc1)
      - Option.value ~default:0 (List.assoc_opt k !svc0))
  in
  (* A layer the workload does not cross reports its uncontended floor
     from the ladder, and says so. *)
  let notes = ref [] in
  let floor name v =
    notes := (name, "ladder floor: the layer did no work in this run") :: !notes;
    v
  in
  let p50_us a = us (Samples.quantile a 0.5) in
  let exec_self, multi_span =
    match target with
    | Target.Service _ ->
        let gets = Spans.call_durations (Array.to_list spans) ~kind:k_get in
        let multis = Spans.call_durations (Array.to_list spans) ~kind:k_multi in
        (p50_us gets -. (rung "ladder.shard_get_ns" /. 1e3), p50_us multis)
    | Target.Store _ ->
        ( floor "service.exec_self_p50_us"
            ((rung "ladder.service_get_ns" -. rung "ladder.shard_get_ns") /. 1e3),
          floor "service.multi_span_p50_us"
            (rung "ladder.service_multi_ns" /. 1e3) )
  in
  let serial_p99 =
    if Hist.count serial > 0 then hist_quantile serial 0.99
    else floor "tm.serial_p99_ns" (rung "ladder.tm_serial_txn_ns")
  in
  let minor_words =
    List.fold_left (fun a w -> a +. w.minor_words) 0. traced.workers
  in
  let metrics =
    [
      m "tm.attempts_per_op" "attempts/op" (per_op (tmf Tm.Stats.started));
      m "tm.commit_ratio" "ratio" (ratio (tmf Tm.Stats.commits) (tmf Tm.Stats.started));
      m "tm.aborts_read_per_kop" "1/kop" (per_kop (tmf Tm.Stats.aborts_read));
      m "tm.aborts_lock_per_kop" "1/kop" (per_kop (tmf Tm.Stats.aborts_lock));
      m "tm.aborts_serial_per_kop" "1/kop" (per_kop (tmf Tm.Stats.aborts_serial));
      m "tm.extensions_per_kop" "1/kop" (per_kop (tmf Tm.Stats.extensions));
      m "tm.ext_fails_per_kop" "1/kop" (per_kop (tmf Tm.Stats.ext_fails));
      m "tm.fallbacks_middle_per_kop" "1/kop"
        (per_kop (tmf Tm.Stats.fallbacks_middle));
      m "tm.fallbacks_serial_per_kop" "1/kop"
        (per_kop (tmf Tm.Stats.fallbacks_serial));
      m "tm.attempt_p50_ns" "ns" (hist_quantile attempts 0.5);
      m "tm.serial_p99_ns" "ns" serial_p99;
      m "rr.reserves_per_op" "1/op" (per_op (d_rr "reserves"));
      m "rr.gets_per_op" "1/op" (per_op (d_rr "gets"));
      m "rr.get_miss_ratio" "ratio" (ratio (d_rr "get_misses") (d_rr "gets"));
      m "rr.revokes_per_op" "1/op" (per_op (d_rr "revokes"));
      m "mempool.allocs_per_op" "1/op" (per_op (d_mp "allocs"));
      m "mempool.fresh_ratio" "ratio" (ratio (d_mp "fresh") (d_mp "allocs"));
      m "mempool.global_ops_per_op" "1/op" (per_op (d_mp "global_ops"));
      m "mempool.high_water_ratio" "ratio" (ratio (mp "high_water") (mp "live"));
      m "service.multi_abort_ratio" "ratio"
        (ratio (svc_delta "multi_aborts") (svc_delta "multis"));
      m "service.exec_self_p50_us" "us" exec_self;
      m "service.multi_span_p50_us" "us" multi_span;
      m "gc.minor_words_per_op" "words/op" (per_op minor_words);
      m "gc.minor_per_kop" "1/kop"
        (per_kop
           (float_of_int (!gc1.Gc.minor_collections - !gc0.Gc.minor_collections)));
      m "gc.major_per_kop" "1/kop"
        (per_kop
           (float_of_int (!gc1.Gc.major_collections - !gc0.Gc.major_collections)));
    ]
    @ List.map (fun (name, v) -> m name "ns" v) ladder
    @ [ m "trace.overhead_ratio" "ratio" (ratio plain_tput traced_tput) ]
  in
  let n_spans = Spans.count (Array.to_list spans) in
  let stride = max 1 (n_spans / 65536) in
  let path =
    Filename.concat out_dir (Target.name cfg.w ^ "-spans.csv")
  in
  Spans.write (Array.to_list spans) ~path ~stride ~call_name:(fun k ->
      match target with
      | Target.Service _ ->
          if k = k_multi then "service.multi" else "service.exec"
      | Target.Store _ -> "store." ^ Spans.call_names.(k));
  let info =
    [
      ("plain_throughput_ops_s", Printf.sprintf "%.1f" plain_tput);
      ("traced_throughput_ops_s", Printf.sprintf "%.1f" traced_tput);
      ("traced_requests", string_of_int traced.ops);
      ("spans_recorded", string_of_int (2 * n_spans));
      ("spans_file", path);
      ("spans_stride", string_of_int stride);
    ]
    @ List.rev !notes
  in
  ([ plain; traced ], metrics, info)

(* ---- output ---- *)

module J = Telemetry.Json

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "list-read | tree-update | kv-zipf");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
      ("--rev", Arg.Set_string rev, "source revision, recorded as provenance");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hohbench --workload W --seed N --seconds S --trace 0|1";
  let w =
    match Target.of_name !workload with
    | Some w -> w
    | None ->
        prerr_endline ("hohbench: unknown workload " ^ !workload);
        exit 2
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "hohbench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let cores = Domain.recommended_domain_count () in
  let domains = min 2 cores in
  let zipf = zipf_for w ~seed:!seed in
  let cfg = { w; seed = !seed; domains; zipf } in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let thread = Tm.Thread.id () in
  let runs, metrics, info =
    if !trace = 0 then end_to_end cfg ~seconds:!seconds ~thread
    else per_layer cfg ~seconds:!seconds ~thread
  in
  let serial_ops, serial_verdict = serial_pass cfg ~thread in
  let attempted =
    List.fold_left (fun a (r : measured) -> a + r.attempted) serial_ops runs
  in
  let verdict =
    List.fold_left
      (fun acc v -> match acc with Ok () -> v | e -> e)
      (Ok ())
      (List.map (fun (r : measured) -> r.verdict) runs @ [ serial_verdict ])
  in
  let correct = Result.is_ok verdict in
  (* a failed check fails every operation of the run *)
  let failed =
    if not correct then attempted
    else
      List.fold_left
        (fun a (r : measured) ->
          List.fold_left (fun a w -> a + w.failed) a r.workers)
        0 runs
  in
  let provenance =
    J.Obj
      ([
         ("workload", J.String (Target.name w));
         ("seed", J.Int !seed);
         ("trace", J.Int !trace);
         ("rev", J.String !rev);
         ("ocaml", J.String Sys.ocaml_version);
         ("cores", J.Int cores);
         ("domains", J.Int domains);
         ("seconds", J.Float !seconds);
         ("verdict", J.String (match verdict with Ok () -> "ok" | Error e -> e));
       ]
      @ List.map (fun (k, v) -> (k, J.String v)) info)
  in
  let result =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun x ->
                 ( x.name,
                   J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit_) ]
                 ))
               metrics) );
      ]
  in
  let oc =
    open_out
      (Filename.concat out_dir
         (Printf.sprintf "%s-trace%d.json" (Target.name w) !trace))
  in
  output_string oc
    (J.to_string (J.Obj [ ("provenance", provenance); ("result", result) ]));
  output_char oc '\n';
  close_out oc;
  print_endline ("provenance " ^ J.to_string provenance);
  print_endline (J.to_string result);
  if not correct then exit 1
