open Structs

(* HV006 in a function that takes the transaction: an immediate free
   inside a window body would race the revoke that only takes effect at
   commit — directly, and through a module alias. *)

module P = Mempool

let eager_free (pool : Lnode.t Mempool.t) (txn : Tm.txn) ~thread n =
  ignore txn;
  Mempool.free pool ~thread n

let aliased_free (pool : Lnode.t Mempool.t) (txn : Tm.txn) n =
  ignore txn;
  P.free pool ~thread:0 n
