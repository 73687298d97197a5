open Structs

(* Differential fixture for DESIGN.md bug #3 (unchecked carry): a
   skiplist-style traversal hint carried across windows and trusted
   without revalidation. *)

let search_from_hint_bad (hint : Lnode.t option ref)
    (head : Lnode.t option Tm.tvar) k =
  let start = ref None in
  Tm.atomic ~site:"fixture" (fun txn -> start := Tm.read txn head);
  Tm.atomic ~site:"fixture" (fun txn ->
      let n =
        match !start with
        | Some n -> n
        | None -> (match Tm.read txn head with Some n -> n | None -> raise Exit)
      in
      (* stale hint used unrevalidated: no ops.get between windows *)
      Tm.read txn n.Lnode.key = k)
