module Tree = Tsj_tree.Tree
module Dag = Tsj_tree.Dag
module Postorder = Tsj_tree.Postorder

type algorithm = Zs_left | Zs_right | Hybrid | Naive

type prep = {
  tree : Tree.t;
  size : int;
  left_po : Postorder.t;
  right_po : Postorder.t; (* postorder form of the mirrored tree *)
  left_cost : int;        (* keyroot cost of the left decomposition *)
  right_cost : int;
  root : int;             (* Dag id of the interned tree; -1 if unconsed *)
}

type consed = Dag.node

let cons dag tree = Dag.intern dag tree

let of_tree ~root tree =
  let left_po = Postorder.of_tree tree in
  let right_po = Postorder.of_tree (Tree.mirror tree) in
  {
    tree;
    size = left_po.size;
    left_po;
    right_po;
    left_cost = Postorder.keyroot_cost left_po;
    right_cost = Postorder.keyroot_cost right_po;
    root;
  }

(* The shared view: structurally equal trees of one store are
   physically equal, which is what the collection-level dedup and the
   [Constrained] fast path key on. *)
let preprocess_consed c = of_tree ~root:(Dag.id c) (Dag.tree c)

let preprocess tree = of_tree ~root:(-1) tree

let tree p = p.tree

let postorders p = (p.left_po, p.right_po)

let equal_consed p1 p2 = p1.root >= 0 && p1.root = p2.root

let size p = p.size

(* The decomposition the kernel runs on.  Mirroring both trees is a
   bijection on edit scripts, so both yield the same distance; [Hybrid]
   picks the one with fewer relevant subproblems. *)
let kernel_input algorithm p1 p2 =
  let right =
    match algorithm with
    | Zs_right -> true
    | Hybrid -> p1.left_cost * p2.left_cost > p1.right_cost * p2.right_cost
    | Zs_left | Naive -> false
  in
  if right then (p1.right_po, p2.right_po) else (p1.left_po, p2.left_po)

(* Equal root ids mean identical interned trees: distance 0 without any
   DP.  Dag ids are globally unique, so this holds across stores. *)
let distance_prep ?(algorithm = Hybrid) p1 p2 =
  match algorithm with
  | Naive -> Naive.distance p1.tree p2.tree
  | Zs_left | Zs_right | Hybrid ->
    if equal_consed p1 p2 then 0
    else
      let a, b = kernel_input algorithm p1 p2 in
      Zhang_shasha.distance_postorder a b

let distance ?algorithm t1 t2 =
  distance_prep ?algorithm (preprocess t1) (preprocess t2)

let bounded_distance_prep ?(algorithm = Hybrid) p1 p2 k =
  match algorithm with
  | Naive -> Int.min (Naive.distance p1.tree p2.tree) (k + 1)
  | Zs_left | Zs_right | Hybrid ->
    let kernel () =
      let a, b = kernel_input algorithm p1 p2 in
      Zhang_shasha.bounded_distance_postorder a b k
    in
    if k < 0 || abs (p1.size - p2.size) > k || p1.root < 0 || p2.root < 0 then kernel ()
    else if p1.root = p2.root then 0
    else begin
      (* Whole-pair shortcut: the clamped result is a pure function of
         (tree, tree, clamp), whichever decomposition computes it, so
         duplicate candidate pairs — ubiquitous when the collection
         repeats trees — reuse the final value and skip the DP. *)
      let memo = Memo.get () in
      match Memo.find_result memo ~id1:p1.root ~id2:p2.root ~k with
      | Some v -> v
      | None ->
        let v = kernel () in
        Memo.add_result memo ~id1:p1.root ~id2:p2.root ~k v;
        v
    end

let within ?algorithm p1 p2 tau =
  if tau < 0 then false
  else if abs (p1.size - p2.size) > tau then false
  else bounded_distance_prep ?algorithm p1 p2 tau <= tau
