(** The per-size inverted lists [I_n] of Algorithm 1 — the one index
    driver shared by the batch join ({!Partsj}) and the streaming index
    ({!Incremental}).

    For every tree size [n] the index keeps a {!Two_layer_index.t} over
    the δ-subgraphs ([δ = 2τ + 1]) of the indexed trees of that size,
    plus an overflow list of the trees with fewer than [δ] nodes: such a
    tree cannot be δ-partitioned (it has only [n - 1] edges), so it is
    kept whole and is a candidate for every probe whose size window
    covers it.  That keeps the filter complete, and such trees have at
    most [2τ] nodes, so they are rare and cheap to verify.

    {b Concurrency.}  {!probe} only reads the index; it may run on
    several domains at once as long as no {!add} on the same index runs
    at the same time.  The PartSJ block sweep relies on this: it probes a
    whole block in parallel, then indexes the block's trees
    sequentially. *)

type t

val create : ?mode:Two_layer_index.mode -> tau:int -> unit -> t
(** An empty index for threshold [tau]; [mode] (default
    {!Two_layer_index.Two_sided}) selects the postorder windows of every
    per-size two-layer index.
    @raise Invalid_argument if [tau < 0]. *)

val add : ?rng:Tsj_util.Prng.t -> ?also:t -> t -> id:int -> Tsj_tree.Binary_tree.t -> int
(** [add t ~id btree] indexes tree [id] under its size: kept whole in the
    overflow list when it has fewer than [δ] nodes, otherwise
    δ-partitioned — balanced ({!Partition.partition}), or along random
    edges drawn from [rng] ({!Partition.random_partition}, one draw per
    partitioned tree) — and its subgraphs inserted.  With [also] (an
    index created with the same [tau] and [mode]), the same partitioning
    goes into that index too.  Returns the number of subgraphs inserted
    into [t] (0 for an overflow tree). *)

type probe = {
  ids : int list;  (** candidate ids in discovery order, no duplicates *)
  probed : int;  (** subgraphs returned by the two-layer index lookups *)
  matched : int;  (** probed subgraphs that matched, one per candidate *)
  small_hits : int;  (** candidates taken from the overflow lists *)
}

val probe :
  t ->
  lo:int ->
  hi:int ->
  Tsj_tree.Binary_tree.t ->
  Two_layer_index.cursor Lazy.t ->
  probe
(** [probe t ~lo ~hi btree cursor] collects the indexed trees of size
    [lo .. hi] that are candidates for [btree]: size by size ascending,
    the overflow list (newest first), then every node of [btree] against
    that size's two-layer index, keeping a tree whose subgraph
    {!Subgraph.matches}.  [cursor] must be {!Two_layer_index.cursor} of
    [btree]; it is forced only when some size in the window has
    subgraphs. *)
