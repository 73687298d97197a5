open Structs

(* HV001: a pointer carried across a window boundary is dereferenced in
   the next window without an RR check. *)

let bad_deref_unchecked (t : Lnode.t option Tm.tvar) =
  let cur = ref None in
  Tm.atomic ~site:"fixture" (fun txn -> cur := Tm.read txn t);
  (* new window: [!cur] is a carried pointer, never re-checked *)
  Tm.atomic ~site:"fixture" (fun txn ->
      match !cur with
      | None -> 0
      | Some n -> Tm.read txn n.Lnode.key)
