open Structs

(* HV006 through a module alias of Mempool: [P.free] is Mempool.free. *)

module P = Mempool

let bad_alias_free (pool : Lnode.t Mempool.t) (t : Lnode.t Tm.tvar)
    (ops : Lnode.t Rr.ops) =
  Tm.atomic ~site:"fixture" (fun txn ->
      let n = Tm.read txn t in
      ops.Rr.revoke txn n;
      P.free pool ~thread:0 n)
