open Structs

(* HV006 under a module alias of Tm: [T.atomic] opens a transaction just
   as Tm.atomic does, so the free inside it is not deferred. *)

module T = Tm

let bad_alias_atomic (pool : Lnode.t Mempool.t) (t : Lnode.t Tm.tvar)
    (ops : Lnode.t Rr.ops) =
  T.atomic ~site:"fixture" (fun txn ->
      let n = T.read txn t in
      ops.Rr.revoke txn n;
      Mempool.free pool ~thread:0 n)
