open Structs

(* HV006 through a helper: [helper] frees eagerly (outside Tm.defer), so
   calling it inside a transaction races the revoke. The diagnostic lands
   on the call site. *)

let helper (pool : Lnode.t Mempool.t) n = Mempool.free pool ~thread:0 n

let bad_helper_free (pool : Lnode.t Mempool.t) (t : Lnode.t Tm.tvar)
    (ops : Lnode.t Rr.ops) =
  Tm.atomic ~site:"fixture" (fun txn ->
      let n = Tm.read txn t in
      ops.Rr.revoke txn n;
      helper pool n)
