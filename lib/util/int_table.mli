(** Hash tables keyed by [int]s and by [int] triples.

    The generic [Hashtbl] functions hash and compare keys polymorphically
    ([caml_hash], [caml_compare]), an out-of-line C call per lookup; in
    the join's index probe and result cache that was a measurable share
    of the run time.  These instances compare keys as [int]s and hash
    them with a cheap multiplicative mix.  Iteration order differs from
    [Hashtbl]'s, so callers must not let it reach their output. *)

include Hashtbl.S with type key = int

module Triple : Hashtbl.S with type key = int * int * int
(** Keyed by an [int] triple (a twig key, a cache key); the components
    are combined, then mixed like an [int] key. *)
