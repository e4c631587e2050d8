(* Whole-pair result cache for the bounded TED kernel.

   The kernel's return value is a pure function of the two trees and the
   clamp, so on hash-consed inputs a duplicate candidate pair
   (ubiquitous on redundant collections) can reuse the final clamped
   distance and skip the whole DP.  Entries are keyed by (Dag root id,
   Dag root id, clamp); [Ted.bounded_distance_prep] is the only caller,
   and it keys by the trees' own root ids whichever decomposition
   (tree or mirror) the kernel runs on.  Dag ids are globally unique (one process-wide
   counter), so a per-domain cache can outlive any single join or
   collection without ever aliasing.  Entries are one int each; the
   table is reset wholesale when the entry bound is hit.  Hit/miss
   counters are global atomics that [Partsj] snapshots into the join
   statistics. *)

module Table = Tsj_util.Int_table.Triple

type t = {
  results : int Table.t;
  max_results : int;
}

let default_results = 1 lsl 16

let create ?(results = default_results) () =
  if results < 1 then invalid_arg "Memo.create: results must be >= 1";
  { results = Table.create 1024; max_results = results }

let key = Domain.DLS.new_key (fun () -> create ())

let get () = Domain.DLS.get key

let hits = Atomic.make 0

let misses = Atomic.make 0

let find_result t ~id1 ~id2 ~k =
  match Table.find_opt t.results (id1, id2, k) with
  | Some v ->
    Atomic.incr hits;
    Some v
  | None ->
    Atomic.incr misses;
    None

let add_result t ~id1 ~id2 ~k v =
  if Table.length t.results >= t.max_results then Table.reset t.results;
  Table.replace t.results (id1, id2, k) v

let results t = Table.length t.results
