(** The per-pair verifier shared by every join and search path.

    PartSJ filters candidate pairs through the subgraph index and then
    verifies each survivor with exact TED.  Verification is the cost that
    matters, so every path — the batch join ({!Partsj}), the streaming
    index ({!Incremental}: [add], [query], [nearest] and the
    budget-degraded answer) and the static index ({!Search}) — decides a
    candidate pair through {!verify}, in this order:

    + an O(1) check for equal consed roots (structurally equal trees
      interned into one {!Tsj_tree.Dag} id space: distance 0);
    + {!Tsj_ted.Bounds.Compiled.cascade}: compiled lower bounds cheapest
      first with short-circuit, then the greedy upper bound, which
      accepts a pair whose bound sandwich closes and otherwise shrinks
      the kernel band below τ;
    + the banded kernel at the band the cascade returned.

    Every stage is lossless, so the verdict's distance is exactly what
    the τ-banded kernel alone would return: [min (TED, τ + 1)] (or the
    chosen metric's value, under the same clamp). *)

type form
(** One tree compiled for verification: its TED preparation (both
    decompositions, DAG ids when consed) and its compiled bound form.
    Built once per stored tree and once per query tree. *)

val of_prep : Tsj_ted.Ted.prep -> form
(** Compile the bound form of the prep's tree ({!Tsj_ted.Bounds.Compiled.of_prep},
    sharing the prep's arrays) and pair it with the prep (consed or
    not). *)

val of_tree : Tsj_tree.Tree.t -> form
(** [of_prep (Ted.preprocess tree)]: an unconsed form. *)

val tree : form -> Tsj_tree.Tree.t
(** The tree the form was built from (the shared structural view when
    consed). *)

(** How a candidate pair was decided; the order mirrors the verifier.
    [Quarantined] is never returned by {!verify}: it is the counter slot
    of pairs a caller diverted instead of deciding (per-pair budget,
    verifier failure, deadline), so that a {!Tally} still partitions the
    candidate set. *)
type stage =
  | Size  (** pruned by the size lower bound *)
  | Labels  (** pruned by the label-histogram lower bound *)
  | Sed  (** pruned by the banded traversal-SED lower bound *)
  | Early  (** equal consed roots, or the bound sandwich closed *)
  | Kernel  (** decided by the exact banded kernel *)
  | Quarantined

(** Per-stage decision counters, safe to bump from several threads.
    Slot order is that of {!stage}. *)
module Tally : sig
  type t

  val create : unit -> t

  val slots : int
  (** Number of counters: one per {!stage}. *)

  val add : t -> stage -> unit

  val to_array : t -> int array
  (** The counts in {!stage} order (the batch join's checkpoint
      format). *)

  val restore : t -> int array -> unit
  (** Overwrite the counts from {!to_array}'s layout.
      @raise Invalid_argument unless the array has {!slots} entries. *)

  val cascade : ?memo_hits:int -> ?memo_misses:int -> t -> Tsj_join.Types.cascade
end

type verdict =
  | Decided of int * stage
      (** the clamped distance and the stage that decided it *)
  | Refused  (** [admit] vetoed the kernel run the pair still needed *)

(** Verifier variants of the batch join's ablation switches
    ({!Partsj.join}'s [cascade] and [bounded_verify]); every other path
    runs {!Cascade}. *)
type mode =
  | Cascade  (** equal roots, cascade, banded kernel (the default) *)
  | Seed  (** banded preorder-SED prefilter, then the τ-banded kernel *)
  | Unbounded  (** the full, unbanded kernel on every pair *)

val verify :
  ?metric:Tsj_join.Sweep.metric ->
  ?mode:mode ->
  ?admit:(unit -> bool) ->
  tau:int ->
  form ->
  form ->
  verdict
(** Decide one candidate pair.  [admit] (default: always) is asked just
    before the kernel would run; when it answers [false] the pair is
    {!Refused} — the batch join's per-pair cost budget.  The distance of
    a {!Decided} verdict is [min (d, τ + 1)] for the metric's distance
    [d], except under {!Unbounded}, which returns [d] itself.
    @raise Invalid_argument if [tau < 0]. *)

val sandwich : form -> form -> int * int
(** [(lower, upper)] with [lower <= TED <= upper], from the compiled
    forms alone (no kernel): the best lower bound and the greedy upper
    bound.  The answer for a pair left unverified by a budget. *)

val distance : ?tally:Tally.t -> tau:int -> form -> form -> int
(** {!verify} with no kernel gate, for the paths that verify every
    candidate: the clamped distance, with the deciding stage counted in
    [tally] (safe from any domain). *)
