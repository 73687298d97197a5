(* The three workloads' system configurations, and one handle over the two
   public surfaces they drive: a single store and the sharded service.

   Every workload uses RR-V with every other Factories.Spec and
   Service.create knob at its library default, so a change of default is
   a program change that the benchmark measures. *)

module Store = Harness.Store
module Factories = Harness.Factories
module Workload = Harness.Workload

type workload = List_read | Tree_update | Kv_zipf

let all = [ List_read; Tree_update; Kv_zipf ]

let name = function
  | List_read -> "list-read"
  | Tree_update -> "tree-update"
  | Kv_zipf -> "kv-zipf"

let of_name s = List.find_opt (fun w -> name w = s) all
let rr_v = Structs.Mode.Rr_kind (module Rr.V : Rr.S)
let key_bits = function List_read -> 10 | Tree_update -> 16 | Kv_zipf -> 14

(* Percent of requests that are lookups; the rest split between inserts
   and removes, except that 3% of kv-zipf requests are 2PC multis. *)
let lookup_pct = function List_read -> 80 | Tree_update -> 20 | Kv_zipf -> 90
let multi_pct = 3
let zipf_theta = 0.99
let shards = 2

let spec = function
  | List_read -> Factories.Spec.v Factories.Spec.Slist rr_v
  | Tree_update -> Factories.Spec.v Factories.Spec.Bst_int rr_v
  | Kv_zipf -> Factories.Spec.v ~shards Factories.Spec.Bst_int rr_v

let wspec w ~seed =
  Workload.spec ~seed ~key_bits:(key_bits w) ~lookup_pct:(lookup_pct w)
    ~threads:1 ~ops_per_thread:0 ()

(* Half the key range, inserted in a seeded random order: ascending
   inserts would degenerate the unbalanced tree into a list. *)
let prefill_keys w ~seed = Workload.prefill_keys (wspec w ~seed)

type t = Store of Store.t | Service of Service.t

let create w =
  match w with
  | Kv_zipf -> Service (Service.create (spec w))
  | List_read | Tree_update -> Store ((Factories.make (spec w)).make ())

let get t ~thread k =
  match t with
  | Store s -> Store.get s ~thread k
  | Service v -> Service.exec v ~thread (Store.Get k)

let insert t ~thread k =
  match t with
  | Store s -> Store.insert s ~thread k
  | Service v -> Service.exec v ~thread (Store.Insert k)

let remove t ~thread k =
  match t with
  | Store s -> Store.remove s ~thread k
  | Service v -> Service.exec v ~thread (Store.Remove k)

let prefill t ~thread keys =
  List.iter
    (fun k ->
      if (insert t ~thread k).Store.outcome <> Store.Inserted then
        failwith "prefill: insert of a fresh key did not insert")
    keys

let build w ~seed ~thread =
  let t = create w in
  prefill t ~thread (prefill_keys w ~seed);
  t

let finalize_thread t ~thread =
  match t with
  | Store s -> Store.finalize_thread s ~thread
  | Service v -> Service.finalize_thread v ~thread

let drain = function Store s -> Store.drain s | Service v -> Service.drain v
let size = function Store s -> Store.size s | Service v -> Service.size v
let check = function Store s -> Store.check s | Service v -> Service.check v
let pool_live = function
  | Store s -> Store.pool_live s
  | Service v -> Service.pool_live v

(* Everything the benchmark checks on a quiescent target: size accounting,
   the structural checks, and exact pool accounting after the drain (every
   node live in the pools is in the set: precise reclamation lost none). *)
let verify t ~expected_size =
  drain t;
  let size = size t in
  if size <> expected_size then
    Error (Printf.sprintf "size accounting: found %d, expected %d" size
             expected_size)
  else
    match check t with
    | Error e -> Error ("structural check: " ^ e)
    | Ok () -> (
        match pool_live t with
        | Some live when live <> size ->
            Error
              (Printf.sprintf "%d pool nodes live for %d keys: %d leaked" live
                 size (live - size))
        | _ -> Ok ())
