open Structs

(* HV010: transaction entries without [~site] — abort attribution and
   sanitizer reports cannot name the operation. *)

let unlabelled_window (ops : Lnode.t Rr.ops) step = Rr.Hoh.apply_stamped ~rr:ops step
let unlabelled_txn body = Tm.atomic body
