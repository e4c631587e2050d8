type t = {
  size : int;
  labels : int array;
  lld : int array;
  keyroots : int array;
}

(* A node is an LR-keyroot iff no proper ancestor shares its lld; i.e. it
   is the highest node of its left path.  Equivalently: the root, plus
   every node that is not the leftmost child of its parent. *)
let keyroots_of n (lld : int array) parent =
  let acc = Tsj_util.Vec_int.create () in
  for i = 0 to n - 1 do
    let p = parent.(i) in
    if p = -1 || lld.(p) <> lld.(i) then Tsj_util.Vec_int.push acc i
  done;
  Tsj_util.Vec_int.to_array acc

let of_tree tree =
  let n = Tree.size tree in
  let labels = Array.make n 0 in
  let lld = Array.make n 0 in
  let parent = Array.make n (-1) in
  let counter = ref 0 in
  (* Returns (postorder id, leftmost leaf descendant id) of the visited
     subtree root. *)
  let rec go (node : Tree.t) =
    let children = List.map go node.children in
    let me = !counter in
    incr counter;
    labels.(me) <- node.label;
    List.iter (fun (c, _) -> parent.(c) <- me) children;
    let my_lld = match children with [] -> me | (_, first_lld) :: _ -> first_lld in
    lld.(me) <- my_lld;
    (me, my_lld)
  in
  ignore (go tree);
  { size = n; labels; lld; keyroots = keyroots_of n lld parent }

let n_leaves t =
  let count = ref 0 in
  for i = 0 to t.size - 1 do
    if t.lld.(i) = i then incr count
  done;
  !count

let subtree_size t i = i - t.lld.(i) + 1

let keyroot_cost t =
  Array.fold_left (fun acc k -> acc + subtree_size t k) 0 t.keyroots
