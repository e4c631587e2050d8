(** Exact tree edit distance — the verifier shared by all join methods.

    The paper verifies candidates with RTED (Pawlik & Augsten), whose key
    idea is to pick a decomposition strategy based on the shapes of the two
    trees.  This module implements that idea as a hybrid over the
    Zhang–Shasha left-path decomposition and its mirror image (the
    right-path decomposition): for every tree pair it estimates the number
    of relevant subproblems of both and runs the cheaper one.  Both
    variants compute the exact distance, so the choice only affects
    runtime.  (See DESIGN.md, substitution 1.) *)

type algorithm =
  | Zs_left   (** Zhang–Shasha on the trees as given *)
  | Zs_right  (** Zhang–Shasha on the mirrored trees *)
  | Hybrid    (** per-pair choice by estimated subproblem count *)
  | Naive     (** memoized forest recursion; testing only, small trees *)

type prep
(** Per-tree preprocessing (postorder arrays for both decompositions).
    Joins preprocess every tree once and verify pairs with
    {!distance_prep}. *)

val preprocess : Tsj_tree.Tree.t -> prep
(** An unconsed prep: no root id, so none of the O(1) shortcuts below
    apply. *)

type consed
(** A tree interned into a {!Tsj_tree.Dag} store: the sequential half of
    consed preprocessing. *)

val cons : Tsj_tree.Dag.t -> Tsj_tree.Tree.t -> consed
(** Interning mutates the store — call from one domain at a time (joins
    cons every tree up front, before fanning out). *)

val preprocess_consed : consed -> prep
(** Pure (no store mutation), so safe to run in parallel across trees.
    The resulting prep carries the tree's root DAG id, which enables the
    equal-root fast path and the whole-pair result cache ({!Memo}) of
    {!distance_prep} and {!bounded_distance_prep}, and its {!tree} is the
    interned tree's shared view: structurally equal trees consed into
    one store give physically equal ([==]) views. *)

val tree : prep -> Tsj_tree.Tree.t

val size : prep -> int

val postorders : prep -> Tsj_tree.Postorder.t * Tsj_tree.Postorder.t
(** The two decompositions' array forms: of the tree, and of its mirror
    image (shared — do not mutate). *)

val equal_consed : prep -> prep -> bool
(** O(1): are both preps consed ({!preprocess_consed}) with equal root
    DAG ids?  DAG ids are globally unique, so [true] means the trees are
    structurally equal (TED 0); [false] says nothing. *)

val distance : ?algorithm:algorithm -> Tsj_tree.Tree.t -> Tsj_tree.Tree.t -> int

val distance_prep : ?algorithm:algorithm -> prep -> prep -> int
(** Exact TED; 0 without any DP when {!equal_consed} holds (except under
    {!Naive}, which always runs the reference recursion). *)

val bounded_distance_prep : ?algorithm:algorithm -> prep -> prep -> int -> int
(** [bounded_distance_prep p1 p2 k] is [min (TED, k + 1)] through the
    τ-banded DP (see {!Zhang_shasha.bounded_distance_postorder}) under the
    chosen decomposition; the {!Naive} algorithm computes fully and
    clamps.  For two consed preps within [k] in size, equal roots answer
    0 and any other pair goes through the whole-pair result cache
    ({!Memo}, keyed by the two root ids and [k]) before the DP runs.
    @raise Invalid_argument if [k < 0]. *)

val within : ?algorithm:algorithm -> prep -> prep -> int -> bool
(** [within p1 p2 tau]: is [TED <= tau]?  Uses the banded verifier. *)
