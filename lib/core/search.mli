(** Similarity search over an indexed collection, and non-self joins.

    The paper frames the similarity join as an extension of similarity
    search (Section 1) and notes the framework "is directly applicable for
    non-self joins".  This module provides both: a persistent PartSJ-style
    index over a fixed collection — every tree δ-partitioned and its
    subgraphs stored in per-size two-layer indexes — and query/join
    entry points on top of it.

    The collection is an {!Incremental} index with every tree inserted
    up front ({!Incremental.insert}: indexed, no self-join at build), so
    search, the streaming join and the serving store share one band
    probe and one verifier ({!Verifier}).

    The index is built for one threshold [τ] (the partitioning grain
    δ = 2τ + 1 depends on it); queries may use any [τ' <= τ]: Lemma 2
    only gets stronger with fewer allowed edits, and the postorder windows
    were sized for the larger τ, so completeness is preserved. *)

type t

val build : ?mode:Two_layer_index.mode -> tau:int -> Tsj_tree.Tree.t array -> t
(** Index a collection.  @raise Invalid_argument if [tau < 0]. *)

val tau : t -> int

val n_trees : t -> int

val query : ?tau:int -> t -> Tsj_tree.Tree.t -> (int * int) list
(** [query idx q] returns [(tree index, distance)] for every collection
    tree within [tau] of [q], sorted by distance then index.
    @raise Invalid_argument if the requested [tau] exceeds the index's. *)

val save : t -> string -> unit
(** Persist the indexed collection to a file: a small header (format
    version, τ) followed by the trees in bracket notation, one per line.
    Interned label ids are process-local, so the index structure itself
    is not serialized; {!load} re-derives it, which is fast (tens of
    microseconds per tree) and keeps the format human-readable and
    stable.
    Publication is atomic (tmp + rename). *)

val load : string -> (t, string) result
(** Rebuild an index previously written by {!save}.  Strict: a negative
    header τ, a corrupt header, an empty record line or a duplicate
    record is rejected with a located diagnostic ([Error "line L: ..."]
    or ["line L, column C: ..."], matching the lenient bracket parser's
    convention) instead of producing a malformed index. *)

val save_collection : tau:int -> Tsj_tree.Tree.t array -> string -> unit
(** The persistence primitive behind {!save} — also the snapshot writer
    of the server store.  Atomic (tmp + rename). *)

val collection_of_string :
  ?allow_duplicates:bool -> string -> (int * Tsj_tree.Tree.t array, string) result
(** Parse the {e contents} of a file written by {!save_collection} —
    the parsing half of {!read_collection}, for callers that read the
    bytes themselves (the server store reads snapshots through
    {!Tsj_util.Durable.read_file} so read-side fault injection reaches
    them). *)

val read_collection :
  ?allow_duplicates:bool -> string -> (int * Tsj_tree.Tree.t array, string) result
(** Parse a file written by {!save_collection} back into [(τ, trees)]
    without building the index.  [allow_duplicates] (default [false])
    admits repeated records — the server store's snapshots may
    legitimately hold duplicates inserted by clients.  Comment lines
    ([#]) are allowed in the body; blank interior lines are rejected as
    empty records. *)

val nearest : k:int -> t -> Tsj_tree.Tree.t -> (int * int) list
(** Top-k search within the index's threshold: the [k] collection trees
    closest to the query (by TED, ties by index), computed by expanding
    the search radius [τ' = 0, 1, ...] until [k] results are in hand —
    each round reuses the cheaper candidate sets of small radii.  Fewer
    than [k] pairs are returned when fewer trees lie within the index
    threshold.  @raise Invalid_argument if [k < 0]. *)

val join_with :
  ?tau:int -> t -> Tsj_tree.Tree.t array -> Tsj_join.Types.output
(** Non-self join: pair every tree of the probe collection with every
    similar tree of the indexed collection.  In the result, [i] indexes
    the {e indexed} collection and [j] the probe collection (so [i < j]
    does not hold here). *)
