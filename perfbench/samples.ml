(* Exact per-operation latency samples.

   Each worker domain owns one preallocated buffer. A sample packs the
   operation class into the low two bits and the latency in nanoseconds
   above them, so one int32 holds both. The buffer is filled with zeros at
   creation: its pages are resident before any structure is built, so the
   resident-set cost of the samples does not grow with throughput and is
   subtracted exactly from the peak RSS. Percentiles come from sorting the
   raw samples after the run, never from bucketed histograms. *)

open Bigarray

type cls = Read | Write | Multi

let code = function Read -> 0 | Write -> 1 | Multi -> 2

type t = {
  buf : (int32, int32_elt, c_layout) Array1.t;
  mutable n : int;
  mutable dropped : int;
}

(* 2^29 ns: a single operation longer than half a second is clamped. *)
let max_ns = (1 lsl 29) - 1

let create capacity =
  let buf = Array1.create int32 c_layout capacity in
  Array1.fill buf 0l;
  { buf; n = 0; dropped = 0 }

let bytes t = 4 * Array1.dim t.buf

let record t cls ns =
  if t.n < Array1.dim t.buf then begin
    let ns = if ns > max_ns then max_ns else if ns < 0 then 0 else ns in
    Array1.unsafe_set t.buf t.n (Int32.of_int ((ns lsl 2) lor code cls));
    t.n <- t.n + 1
  end
  else t.dropped <- t.dropped + 1

(* A worker's own handle on a buffer. The record holding the mutable count
   is allocated by the worker, in its own heap: two domains' counters on one
   cache line would make every sample a cross-core write. [finish] hands
   the count back to the shared handle. *)
let local t = { t with n = t.n }

let finish ~into t =
  into.n <- t.n;
  into.dropped <- t.dropped

let length t = t.n
let dropped ts = List.fold_left (fun a t -> a + t.dropped) 0 ts

(* [f ns] for each sample of class [cls] in the given index ranges. *)
let iter_ranges ranges cls f =
  let c = code cls in
  List.iter
    (fun (t, lo, hi) ->
      for i = lo to hi - 1 do
        let v = Int32.to_int (Array1.unsafe_get t.buf i) in
        if v land 3 = c then f (v lsr 2)
      done)
    ranges

let whole ts = List.map (fun t -> (t, 0, t.n)) ts

let count ts cls =
  let n = ref 0 in
  iter_ranges (whole ts) cls (fun _ -> incr n);
  !n

(* The samples of one class in the given ranges, sorted ascending (ns). *)
let sorted_ranges ranges cls =
  let n = ref 0 in
  iter_ranges ranges cls (fun _ -> incr n);
  let a = Array.make !n 0 and i = ref 0 in
  iter_ranges ranges cls (fun v ->
      a.(!i) <- v;
      incr i);
  Array.sort Int.compare a;
  a

(* Nearest-rank quantile of a sorted array. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Samples.quantile: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Samples.median_float: empty";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
