(* In-memory request spans for the traced run.

   Around every call the benchmark makes into a layer it records a request
   span (request generation, the call, and sample bookkeeping) and, as its
   child, the span of the call itself. Both share the request's id. A
   domain owns one preallocated buffer; nothing allocates per request. The
   spans are written out once, after the run. *)

open Bigarray

type t = {
  times : (int, int_elt, c_layout) Array1.t;
      (* four per request: request start, call start, call end, request end *)
  names : Bytes.t;  (* call kind per request, an index into [call_names] *)
  mutable n : int;
}

let call_names = [| "get"; "insert"; "remove"; "multi" |]

let create capacity =
  {
    times = Array1.create int c_layout (4 * capacity);
    names = Bytes.create capacity;
    n = 0;
  }

(* As {!Samples.local}: the worker's own record, so counters of two domains
   never share a cache line. *)
let local t = { t with n = t.n }
let finish ~into t = into.n <- t.n

let record t ~kind ~req_start ~call_start ~call_end ~req_end =
  if t.n < Bytes.length t.names then begin
    let i = 4 * t.n in
    Array1.unsafe_set t.times i req_start;
    Array1.unsafe_set t.times (i + 1) call_start;
    Array1.unsafe_set t.times (i + 2) call_end;
    Array1.unsafe_set t.times (i + 3) req_end;
    Bytes.unsafe_set t.names t.n (Char.unsafe_chr kind);
    t.n <- t.n + 1
  end

(* Sorted call durations (ns) of one kind over every buffer. *)
let call_durations ts ~kind =
  let iter f =
    List.iter
      (fun t ->
        for r = 0 to t.n - 1 do
          if Char.code (Bytes.get t.names r) = kind then
            f (Array1.get t.times ((4 * r) + 2) - Array1.get t.times ((4 * r) + 1))
        done)
      ts
  in
  let n = ref 0 in
  iter (fun _ -> incr n);
  let a = Array.make !n 0 and i = ref 0 in
  iter (fun v ->
      a.(!i) <- v;
      incr i);
  Array.sort Int.compare a;
  a

(* CSV, one span a line: every [stride]-th request of each domain with its
   call as the child. [call_name] names the public function called. *)
let write ts ~path ~call_name ~stride =
  let oc = open_out path in
  output_string oc "trace_id,span_id,parent_id,name,start_ns,end_ns\n";
  List.iteri
    (fun d t ->
      let r = ref 0 in
      while !r < t.n do
        let i = 4 * !r in
        let id = (d lsl 40) lor !r in
        let kind = Char.code (Bytes.get t.names !r) in
        Printf.fprintf oc "%d,%d,,request.%s,%d,%d\n%d,%d,%d,%s,%d,%d\n" id
          (2 * id) call_names.(kind) (Array1.get t.times i)
          (Array1.get t.times (i + 3))
          id
          ((2 * id) + 1)
          (2 * id) (call_name kind)
          (Array1.get t.times (i + 1))
          (Array1.get t.times (i + 2));
        r := !r + stride
      done)
    ts;
  close_out oc

let count ts = List.fold_left (fun a t -> a + t.n) 0 ts
