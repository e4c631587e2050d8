(** Whole-pair result cache for the τ-banded TED kernel.

    Keyed by ({!Tsj_tree.Dag} root id, root id, clamp), an entry holds
    the kernel's clamped distance for that tree pair — a pure function
    of the key, so a hit is bit-identical to running the DP.  One cache
    per domain (via [Domain.DLS]), sitting next to {!Arena}; Dag ids are
    globally unique, so a cache safely outlives any single collection or
    join. *)

type t

val create : ?results:int -> unit -> t
(** A standalone cache (tests); the kernel uses {!get}.  [results]
    bounds the entry count (default [2^16]; the table is reset wholesale
    when full).
    @raise Invalid_argument if [results < 1]. *)

val get : unit -> t
(** The calling domain's cache (created on first use). *)

val find_result : t -> id1:int -> id2:int -> k:int -> int option
(** The whole-pair clamped distance for (tree, tree, clamp), if cached.
    A hit skips the entire DP of a duplicate candidate pair.  Counts a
    global hit or miss. *)

val add_result : t -> id1:int -> id2:int -> k:int -> int -> unit
(** Insert a whole-pair result; when the table is full it is reset
    wholesale first (entries are single ints — losing them only costs
    recomputation). *)

val results : t -> int
(** Whole-pair results currently cached. *)

val hits : int Atomic.t
(** Process-wide hit counter (all domains). *)

val misses : int Atomic.t
