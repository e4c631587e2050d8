module Tree = Tsj_tree.Tree
module Postorder = Tsj_tree.Postorder
module Multiset = Tsj_util.Multiset

(* --- compiled per-tree forms --- *)

module Compiled = struct
  (* Four int arrays of [size] entries, about 4 words per node — and
     only the sorted label multiset of them is the form's own when it is
     compiled from a TED preparation ({!of_prep}): [post] (postorder
     labels of the tree), [mpost] and [mlld] (postorder labels and
     leftmost-leaf descendants of its mirror image) are the very arrays
     the kernel's two decompositions use.

     The mirror's postorder is the tree's preorder reversed.  String
     edit distance is invariant under reversing both strings, so [mpost]
     serves the preorder-SED bound as is; and walking down from node [p]
     of the mirror — its last child is [p - 1], the child before child
     [c] is [mlld.(c) - 1], until [mlld.(p)] — visits [p]'s children in
     the tree's own left-to-right order, which is all the greedy upper
     bound, the degree bag and the Euler tour need. *)
  type t = { labels : Multiset.t; post : int array; mpost : int array; mlld : int array }

  let of_postorders ~(tree : Postorder.t) ~(mirror : Postorder.t) =
    {
      labels = Multiset.of_unsorted tree.labels;
      post = tree.labels;
      mpost = mirror.labels;
      mlld = mirror.lld;
    }

  let of_tree tree =
    of_postorders ~tree:(Postorder.of_tree tree)
      ~mirror:(Postorder.of_tree (Tree.mirror tree))

  let of_prep prep =
    let tree, mirror = Ted.postorders prep in
    of_postorders ~tree ~mirror

  let size c = Array.length c.post

  let seed_prefilter ~tau a b = String_edit.within a.mpost b.mpost tau

  (* Pairwise lower bounds on the compiled forms.  Each runs without any
     per-pair allocation: the multiset bounds are merge walks over the
     sorted arrays, the banded SED draws its rolling rows from the
     per-domain arena. *)

  let size_bound a b = abs (size a - size b)

  let label_bound a b = (Multiset.symmetric_difference_size a.labels b.labels + 1) / 2

  let traversal_bound a b =
    Int.max (String_edit.distance a.mpost b.mpost) (String_edit.distance a.post b.post)

  (* The degree bag, counted from the mirror's arrays: not kept in [t],
     as only [best] needs it. *)
  let degrees c =
    let degs = Array.make (size c) 0 in
    for p = 0 to size c - 1 do
      let child = ref (p - 1) in
      while !child >= c.mlld.(p) do
        degs.(p) <- degs.(p) + 1;
        child := c.mlld.(!child) - 1
      done
    done;
    Multiset.of_unsorted degs

  let degree_bound a b =
    (Multiset.symmetric_difference_size (degrees a) (degrees b) + 2) / 3

  (* The Euler tour (each node's label on entry and on exit), rebuilt
     from the mirror's arrays: not kept in [t] either. *)
  let euler c =
    let tour = Array.make (2 * size c) 0 in
    let k = ref 0 in
    let push l =
      tour.(!k) <- l;
      incr k
    in
    let rec go p =
      push c.mpost.(p);
      let child = ref (p - 1) in
      while !child >= c.mlld.(p) do
        go !child;
        child := c.mlld.(!child) - 1
      done;
      push c.mpost.(p)
    in
    go (size c - 1);
    tour

  let euler_bound a b = (String_edit.distance (euler a) (euler b) + 1) / 2

  let best a b =
    List.fold_left Int.max 0
      [
        size_bound a b;
        label_bound a b;
        degree_bound a b;
        traversal_bound a b;
        euler_bound a b;
      ]

  (* Greedy-mapping upper bound: rename the roots if their labels differ,
     recursively edit the children matched position by position, and
     delete / insert the unmatched tails.  This is the cost of a concrete
     edit script whose mapping sends disjoint subtrees to disjoint
     subtrees, so it upper-bounds not only the unrestricted TED but also
     every restricted metric whose scripts include it — in particular the
     constrained edit distance, which is what keeps the early-accept
     stage lossless under [Sweep.Constrained].  O(min size) time, zero
     allocation. *)
  let upper a b =
    let lab_a = a.mpost and lab_b = b.mpost in
    let lld_a = a.mlld and lld_b = b.mlld in
    let rec go i j =
      let c = ref (if lab_a.(i) = lab_b.(j) then 0 else 1) in
      (* Children matched position by position, first to last: [x]/[y]
         walk the child lists down the mirror's postorder, which ends at
         [stop_x]/[stop_y]. *)
      let stop_x = lld_a.(i) and stop_y = lld_b.(j) in
      let x = ref (i - 1) and y = ref (j - 1) in
      while !x >= stop_x && !y >= stop_y do
        c := !c + go !x !y;
        x := lld_a.(!x) - 1;
        y := lld_b.(!y) - 1
      done;
      (* The unmatched tail of either child list is deleted / inserted
         whole: its cost is the node count of the remaining children. *)
      !c + (!x - stop_x + 1) + (!y - stop_y + 1)
    in
    go (size a - 1) (size b - 1)

  (* --- the verification filter cascade --- *)

  type stage = Size | Labels | Sed

  type outcome =
    | Pruned of stage
    | Accept of int
    | Verify of { band : int }

  let cascade ~tau a b =
    if tau < 0 then invalid_arg "Bounds.Compiled.cascade: negative threshold";
    (* Stages run cheapest first and short-circuit on the first lower
       bound exceeding τ.  Each stage is a TED lower bound, so pruning is
       lossless; surviving stage values accumulate into [lb]. *)
    let lb = size_bound a b in
    if lb > tau then Pruned Size
    else begin
      let l = label_bound a b in
      if l > tau then Pruned Labels
      else begin
        let lb = Int.max lb l in
        (* Banded traversal SED: each tree edit operation edits the
           preorder (resp. postorder) label sequence in exactly one
           position, so both are TED lower bounds; within the band the
           returned values are exact. *)
        let s1 = String_edit.bounded_distance a.mpost b.mpost tau in
        if s1 > tau then Pruned Sed
        else begin
          let s2 = String_edit.bounded_distance a.post b.post tau in
          if s2 > tau then Pruned Sed
          else begin
            let lb = Int.max lb (Int.max s1 s2) in
            let ub = upper a b in
            if ub = lb then
              (* The bounds sandwich closes: lb <= TED <= ub = lb, so
                 the exact distance is known without running the
                 kernel (and it also pins every metric between TED and
                 the greedy script's cost, e.g. the constrained
                 distance). *)
              Accept lb
            else if ub <= tau then
              (* The pair is certainly a result (TED <= ub <= τ), but
                 the exact distance is still needed: run the kernel
                 with the band shrunk to ub - 1.  The banded kernel
                 returns min(TED, band + 1) = min(TED, ub) = TED. *)
              Verify { band = ub - 1 }
            else Verify { band = tau }
          end
        end
      end
    end
end

