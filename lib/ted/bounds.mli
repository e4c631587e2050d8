(** Lower and upper bounds on the tree edit distance, and the staged
    verification filter cascade built from them.

    Every lower bound satisfies [bound t1 t2 <= TED(t1, t2)] (so
    [bound > τ] prunes a candidate pair without an exact TED
    computation); {!Compiled.upper} satisfies [upper t1 t2 >= TED(t1, t2)]
    (so [upper <= τ] certifies a result pair).  The tests validate both
    inequalities on random tree pairs.

    Provenance of each lower bound:
    - size: one edit operation changes the node count by at most 1;
    - label histogram: one operation changes the label bag's L1 distance by
      at most 2 (rename removes one label and adds another);
    - degree histogram: one operation changes the degree bag's L1 distance
      by at most 3 (the reconnected parent's degree moves, and a node
      appears or disappears);
    - preorder / postorder strings: Guha et al. — each operation edits the
      traversal label sequence in exactly one position;
    - Euler string: Akutsu et al. — each operation edits the Euler tour in
      at most two positions.

    The cascade ({!Compiled.cascade}) runs the size, label-histogram and
    traversal-string bounds.  The degree-histogram and Euler-string
    bounds only join {!Compiled.best}, the lower end of the sandwich a
    pair left unverified is answered with: after the label histogram,
    the banded traversal SED prunes nearly every pair the degree bag
    would. *)

(** Per-tree forms compiled once (during join preprocessing, or at
    insert for a served tree) so that the cascade's bounds run with zero
    per-pair allocation: the sorted label multiset, and the postorder
    label arrays of the tree and of its mirror image with the mirror's
    leftmost-leaf array — about 4 words per node.  Compiled from a TED
    preparation ({!of_prep}), the three postorder arrays are the
    preparation's own, so the form adds about 1 word per node. *)
module Compiled : sig
  type t

  val of_tree : Tsj_tree.Tree.t -> t

  val of_prep : Ted.prep -> t
  (** The form of the prep's tree, sharing the prep's postorder arrays
      (see {!Ted.postorders}). *)

  val size : t -> int
  (** Node count of the compiled tree. *)

  val seed_prefilter : tau:int -> t -> t -> bool
  (** Is the preorder label sequences' string edit distance at most
      [tau]?  The lone prefilter of the seed verifier, kept for the
      batch join's cascade-off ablation. *)

  val size_bound : t -> t -> int

  val label_bound : t -> t -> int

  val degree_bound : t -> t -> int
  (** Counts both degree bags (they are not stored): for {!best}, off
      the verification hot path. *)

  val traversal_bound : t -> t -> int
  (** [max preorder_sed postorder_sed] — the STR filter (unbanded). *)

  val euler_bound : t -> t -> int
  (** Rebuilds both Euler strings (they are not stored): for {!best},
      off the verification hot path. *)

  val best : t -> t -> int
  (** Maximum of all the lower bounds above. *)

  val upper : t -> t -> int
  (** Greedy-mapping upper bound: cost of the edit script that renames
      mismatched roots, edits children matched position by position and
      deletes/inserts the unmatched tails.  The script's mapping sends
      disjoint subtrees to disjoint subtrees, so
      [TED <= constrained distance <= upper]. *)

  (** Cascade stage that rejected a pair (for the per-stage counters). *)
  type stage = Size | Labels | Sed

  type outcome =
    | Pruned of stage  (** some lower bound exceeds τ: not a result *)
    | Accept of int
        (** the bounds sandwich closed (lower = upper <= τ): a result
            with exactly this distance, no kernel run *)
    | Verify of { band : int }
        (** undecided: run the exact kernel with this band threshold
            ([band = τ], or [band = upper - 1 < τ] when the upper bound
            already admits the pair — the banded kernel then still
            returns the exact distance since [TED <= upper]) *)

  val cascade : tau:int -> t -> t -> outcome
  (** The staged verifier, cheapest first with short-circuit:
      size → label histogram → banded traversal SED (preorder, then
      postorder) → greedy upper bound.  Lossless for the TED verifier
      and for any metric wedged between TED and the greedy script cost
      (e.g. the constrained edit distance).
      @raise Invalid_argument if [tau < 0]. *)
end
