open Structs

(* HV010 behind module aliases: an alias (or an alias of an alias) must
   not smuggle an unlabelled transaction entry past the check. *)

module H = Rr.Hoh
module T = Tm
module H2 = H

let no_site_hoh (ops : Lnode.t Rr.ops) step = H.apply ~rr:ops step
let no_site_tm body = T.atomic body
let no_site_chain (ops : Lnode.t Rr.ops) step = H2.apply ~rr:ops step
