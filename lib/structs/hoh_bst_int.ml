module Window = Rr.Hoh.Window

type t = {
  mode : Tnode.t Mode.t;
  root : Tnode.t;  (** sentinel, key = [max_int]; real tree on its left *)
  window : Window.t;
  middle : Tm.Middle.t option;
  pool : Tnode.t Mempool.t;
  max_attempts : int option;
}

let create ~mode ?(window = 16) ?(scatter = true) ?adaptive
    ?(middle = false) ?magazines ?strategy ?rr_config ?(max_attempts = 8) () =
  (match mode with
  | Mode.Tmhp | Mode.Ref | Mode.Ebr ->
      invalid_arg "Hoh_bst_int: only Rr_kind and Htm modes are supported"
  | Mode.Rr_kind _ | Mode.Htm -> ());
  let pool = Tnode.make_pool ?strategy ?magazines () in
  let mode =
    Mode.create mode ~pool
      ~deleted:(fun n -> n.Tnode.deleted)
      ~rc:(fun n -> n.Tnode.rc)
      ~gen:(fun n -> Atomic.get n.Tnode.gen)
      ~hash:Tnode.hash ~equal:Tnode.equal ?rr_config ()
  in
  {
    mode;
    root = Tnode.sentinel ~key:max_int;
    window = Window.create ~scatter ?adaptive window;
    middle = (if middle then Some (Tm.Middle.create ()) else None);
    pool;
    max_attempts = Some max_attempts;
  }

let name t = t.mode.Mode.name

(* One windowed descent. Examines up to [budget] nodes; on exhaustion hands
   off the last examined node (whose key the resuming transaction
   re-reads to recover direction). [`Found_unparented] arises only when the
   resumed node itself matches — possible only if its key changed, which
   revocation prevents — and is handled by re-descending from the root. *)
let descend txn ~key ~start ~budget =
  let rec go parent curr i =
    let k = Tm.read txn curr.Tnode.key in
    if k = key then
      match parent with
      | Some p -> `Found (p, curr)
      | None -> `Found_unparented
    else
      let side = key < k in
      let child = if side then curr.Tnode.left else curr.Tnode.right in
      match Tm.read txn child with
      | None -> `Absent (curr, side)
      | Some c ->
          if i >= budget then `Window curr
          else go (Some curr) c (i + 1)
  in
  go None start 1

let start_point t ~thread ~start =
  match start with
  | Some n -> (n, Window.budget t.window ~thread)
  | None ->
      ( t.root,
        if t.mode.Mode.whole_op then max_int
        else Window.first_budget t.window ~thread )

let apply t ~thread ?(read_phase = false) key ~site ~on_found ~on_notfound =
  if key <= min_int + 1 || key >= max_int then
    invalid_arg "Hoh_bst_int: key out of range";
  Rr.Hoh.apply_stamped ~rr:t.mode.Mode.ops ~site ?max_attempts:t.max_attempts
    ~read_phase
    ~window:(t.window, thread)
    ?middle:t.middle
    (fun txn ~start ->
      let start, budget = start_point t ~thread ~start in
      let outcome =
        match descend txn ~key ~start ~budget with
        | `Found_unparented ->
            (* Rare fallback: finish the descent from the root in this same
               transaction to recover the parent. *)
            descend txn ~key ~start:t.root ~budget:max_int
        | o -> o
      in
      match outcome with
      | `Found (p, curr) -> Rr.Hoh.Finish (on_found txn ~parent:p ~curr)
      | `Absent (p, side) -> Rr.Hoh.Finish (on_notfound txn ~parent:p ~side)
      | `Window c -> Rr.Hoh.Hand_off c
      | `Found_unparented -> assert false (* root descent always has parents *))

let lookup_s t ~thread key =
  apply t ~thread ~read_phase:t.mode.Mode.ro_hint key ~site:"bst_int.lookup"
    ~on_found:(fun _ ~parent:_ ~curr:_ -> true)
    ~on_notfound:(fun _ ~parent:_ ~side:_ -> false)

let insert_s t ~thread key =
  let spare = ref None in
  let result =
    apply t ~thread key ~site:"bst_int.insert"
      ~on_found:(fun _ ~parent:_ ~curr:_ -> false)
      ~on_notfound:(fun txn ~parent ~side ->
        let n =
          match !spare with
          | Some n -> n
          | None ->
              let n = Tnode.alloc t.pool ~thread in
              spare := Some n;
              n
        in
        Tm.write txn n.Tnode.key key;
        Tm.write txn n.Tnode.side side;
        Tm.write txn
          (if side then parent.Tnode.left else parent.Tnode.right)
          (Some n);
        Tm.defer txn (fun () -> spare := None);
        true)
  in
  Mode.give_back_spare t.pool ~thread spare;
  result

(* Replace [parent]'s edge to [curr] with [child] (zero- or one-child
   splice). *)
let splice t txn ~parent ~curr child =
  let cside = Tm.read txn curr.Tnode.side in
  Tm.write txn (if cside then parent.Tnode.left else parent.Tnode.right) child;
  (match child with
  | Some c -> Tm.write txn c.Tnode.side cside
  | None -> ());
  t.mode.Mode.invalidate txn curr;
  t.mode.Mode.dispose txn curr

(* Two-child removal: move the key of the leftmost descendant of the right
   child into [curr], extract that descendant, and revoke the whole
   curr..leftmost path. *)
let remove_two_children t txn ~curr ~right =
  let rec find_leftmost parent node acc =
    match Tm.read txn node.Tnode.left with
    | Some l -> find_leftmost node l (node :: acc)
    | None -> (parent, node, node :: acc)
  in
  let lparent, lm, path = find_leftmost curr right [ curr ] in
  Tm.write txn curr.Tnode.key (Tm.read txn lm.Tnode.key);
  let promoted = Tm.read txn lm.Tnode.right in
  if Tnode.equal lparent curr then begin
    (* [lm] is curr's right child: its right subtree takes its place. *)
    Tm.write txn curr.Tnode.right promoted;
    match promoted with
    | Some x -> Tm.write txn x.Tnode.side false
    | None -> ()
  end
  else begin
    Tm.write txn lparent.Tnode.left promoted;
    match promoted with
    | Some x -> Tm.write txn x.Tnode.side true
    | None -> ()
  end;
  List.iter (fun n -> t.mode.Mode.invalidate txn n) path;
  t.mode.Mode.dispose txn lm

let remove_s t ~thread key =
  apply t ~thread key ~site:"bst_int.remove"
    ~on_found:(fun txn ~parent ~curr ->
      let lv = Tm.read txn curr.Tnode.left in
      let rv = Tm.read txn curr.Tnode.right in
      (match (lv, rv) with
      | None, _ -> splice t txn ~parent ~curr rv
      | _, None -> splice t txn ~parent ~curr lv
      | Some _, Some r -> remove_two_children t txn ~curr ~right:r);
      true)
    ~on_notfound:(fun _ ~parent:_ ~side:_ -> false)

let insert t ~thread key = fst (insert_s t ~thread key)
let remove t ~thread key = fst (remove_s t ~thread key)
let lookup t ~thread key = fst (lookup_s t ~thread key)

let finalize_thread t ~thread =
  t.mode.Mode.finalize ~thread;
  Mempool.drain_magazines t.pool ~thread
let drain t = t.mode.Mode.drain ()

let rec fold_infix acc node f =
  match node with
  | None -> acc
  | Some n ->
      let acc = fold_infix acc (Tm.peek n.Tnode.left) f in
      let acc = f acc n in
      fold_infix acc (Tm.peek n.Tnode.right) f

let to_list t =
  List.rev
    (fold_infix [] (Tm.peek t.root.Tnode.left) (fun acc n ->
         Tm.peek n.Tnode.key :: acc))

let size t = fold_infix 0 (Tm.peek t.root.Tnode.left) (fun acc _ -> acc + 1)

let depth t =
  let rec go = function
    | None -> 0
    | Some n -> 1 + max (go (Tm.peek n.Tnode.left)) (go (Tm.peek n.Tnode.right))
  in
  go (Tm.peek t.root.Tnode.left)

let check t =
  let exception Bad of string in
  let rec go node ~lo ~hi ~expect_side =
    match node with
    | None -> ()
    | Some n ->
        let k = Tm.peek n.Tnode.key in
        if k = Tnode.poisoned_key then
          raise (Bad (Printf.sprintf "poisoned node %d linked" n.Tnode.id));
        if Tm.peek n.Tnode.deleted then
          raise (Bad (Printf.sprintf "deleted node %d linked" n.Tnode.id));
        if not (Mempool.is_live t.pool n) then
          raise (Bad (Printf.sprintf "freed node %d linked" n.Tnode.id));
        if not (k > lo && k < hi) then
          raise (Bad (Printf.sprintf "BST ordering violated at key %d" k));
        if Tm.peek n.Tnode.side <> expect_side then
          raise (Bad (Printf.sprintf "wrong side flag at key %d" k));
        go (Tm.peek n.Tnode.left) ~lo ~hi:k ~expect_side:true;
        go (Tm.peek n.Tnode.right) ~lo:k ~hi ~expect_side:false
  in
  match go (Tm.peek t.root.Tnode.left) ~lo:min_int ~hi:max_int ~expect_side:true with
  | () -> Ok ()
  | exception Bad msg -> Error msg

let pool_stats t = Mempool.stats t.pool
let pool_live t = Mempool.live t.pool
