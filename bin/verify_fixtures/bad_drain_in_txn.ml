open Structs

(* HV008: magazine drains free whole depot batches; they are only safe at
   quiescence, never inside a window. *)

let bad_drain_in_txn (pool : Lnode.t Mempool.t) (t : int Tm.tvar) =
  Tm.atomic ~site:"fixture" (fun txn ->
      let v = Tm.read txn t in
      Mempool.drain_magazines pool ~thread:0;
      v)
