(** Streaming similarity join.

    The paper motivates PartSJ with "streaming workloads where tree
    objects (e.g., XML and HTML entities) are inserted and updated at a
    high rate" — its index is already built on-the-fly.  This module
    removes the remaining batch assumption (size-ascending processing):
    trees may arrive in {e any} order.  On arrival, a tree probes the
    per-size {!Band_index} — the same index driver as {!Partsj} — over
    the whole [size ± τ] band (Lemma 2 partitions the {e indexed} tree,
    so the direction of the size difference is irrelevant), reports its
    join partners among everything seen so far, and is then partitioned
    and indexed itself.  Every candidate is
    decided by the shared {!Verifier} (equal consed roots, the compiled
    bound cascade, then the banded kernel); each stored tree's verifier
    form is built once at insert, each query tree's once per request.

    Feeding a whole collection through {!add} yields exactly the self-join
    result of {!Partsj.join}; fed in the join's sweep order (size, then
    id) it also verifies exactly the join's candidates and indexes the
    same subgraphs ({!stats}). *)

type t

val create : ?mode:Two_layer_index.mode -> tau:int -> unit -> t
(** @raise Invalid_argument if [tau < 0].  Every inserted tree is
    hash-consed into a per-index {!Tsj_tree.Dag} store: repeated
    subtrees across the stream are stored once ({!tree} returns the
    shared structural view), and verification uses consed preps —
    equal trees are answered without running the DP, and the τ-banded
    kernel reuses the result of a repeated tree pair through
    {!Tsj_ted.Memo}. *)

val tau : t -> int

val n_trees : t -> int
(** Trees inserted so far. *)

val add : t -> Tsj_tree.Tree.t -> (int * int) list
(** [add t tree] inserts [tree] (its id is the number of previously
    inserted trees) and returns [(id, distance)] for every earlier tree
    within [τ], sorted by id. *)

val insert : t -> Tsj_tree.Tree.t -> unit
(** {!add} without the probe and the verification: the tree is stored
    and indexed under the next id, its partners are not computed — how
    {!Search} builds a static collection. *)

val tree : t -> int -> Tsj_tree.Tree.t
(** @raise Invalid_argument on an unknown id. *)

val form : t -> int -> Verifier.form
(** The stored tree's verifier form, built once at insert.
    @raise Invalid_argument on an unknown id. *)

val candidates : t -> tau:int -> Tsj_tree.Tree.t -> int list
(** The ids the subgraph index proposes for a tree over the
    [size ± tau] band (a superset of the ids within [tau]), sorted —
    unverified.
    @raise Invalid_argument if [tau] exceeds the index threshold (the
    stored δ-partitionings only guarantee completeness up to it) or is
    negative. *)

val find_equal : t -> Tsj_tree.Tree.t -> int option
(** The smallest id whose tree is structurally equal to the argument
    (distance 0), if any — an O(1) hash probe, no TED.  This is the
    whole-tree dedup primitive of the serving store. *)

val stats : t -> int * int
(** [(candidates verified by {!add}, subgraphs indexed)] so far. *)

val cascade : t -> Tsj_join.Types.cascade
(** How every candidate verified so far — by {!add}, {!query} and
    {!nearest} alike — was decided by {!Verifier.verify}: pruned per
    cascade stage, early-accepted, or run through the kernel.  τ = 0
    point queries (answered by the exact-match hash) and the candidates
    a degraded {!query} left unverified are not counted; the memo
    counters are 0.  Safe to read while queries run. *)

type query_result = {
  hits : (int * int) list;
      (** [(id, distance)] for every verified tree within [τ], sorted by
          distance then id *)
  degraded : bool;
      (** the budget expired before every candidate was verified *)
  unverified : (int * int * int) list;
      (** when degraded: [(id, lower, upper)] bound sandwiches
          ([lower <= TED <= upper]) of the candidates left unverified,
          minus those whose lower bound already exceeds [τ] (provably
          not results); sorted by id *)
}

val query :
  ?budget:Tsj_join.Budget.t ->
  ?domains:int ->
  ?tau:int ->
  t ->
  Tsj_tree.Tree.t ->
  query_result
(** Non-mutating similarity search over everything inserted so far —
    the serving path of the streaming index.  [tau] defaults to the
    index threshold and may be any [τ' <= τ] (the probe band shrinks
    with it).  Verification runs in chunks of candidates (fanned over
    [domains] when > 1) and polls [budget] between chunks: an expired
    budget degrades the answer instead of hanging — see
    {!type:query_result}.  With no budget the result is exact and
    bit-identical at every domain count.
    @raise Invalid_argument if [tau] exceeds the index threshold, is
    negative, or [domains < 1]. *)

val nearest : k:int -> t -> Tsj_tree.Tree.t -> (int * int) list
(** Top-k within the index threshold, by expanding radius (see
    {!Search.nearest}).  @raise Invalid_argument if [k < 0]. *)
