(* PartSJ's per-size index recomposed from its public layers, for the
   traced runs: [Partition] and [Subgraph] to index a tree, the two-layer
   index and [Subgraph.matches] to find candidates.  The join
   recomposition and the serving replay both drive it, and each checks
   that it reproduces the library's own answers. *)

open Common
module Binary_tree = Tsj_tree.Binary_tree
module Partition = Tsj_core.Partition
module Subgraph = Tsj_core.Subgraph
module Index = Tsj_core.Two_layer_index

type t = {
  tau : int;
  delta : int;
  entries : (int, Index.t * int list ref) Hashtbl.t;
      (* per tree size: the index of its δ-partitionable trees, and the
         trees too small to partition (always candidates) *)
  probe : Trace.acc;  (* per probing tree, its match tests included *)
  matches : Trace.acc;
  partition : Trace.acc;
  mutable probed : int;
  mutable matched : int;
  mutable subgraphs : int;
}

let create ~tau =
  {
    tau;
    delta = (2 * tau) + 1;
    entries = Hashtbl.create 64;
    probe = Trace.acc ();
    matches = Trace.acc ();
    partition = Trace.acc ();
    probed = 0;
    matched = 0;
    subgraphs = 0;
  }

let entry t size =
  match Hashtbl.find_opt t.entries size with
  | Some e -> e
  | None ->
    let e = (Index.create ~tau:t.tau (), ref []) in
    Hashtbl.add t.entries size e;
    e

(* Ids of the indexed trees with size in [lo, hi] that are candidates
   for [btree], in discovery order. *)
let candidates t ~lo ~hi btree cursor =
  let checked = Hashtbl.create 16 and pending = ref [] in
  let add tj =
    Hashtbl.add checked tj ();
    pending := tj :: !pending
  in
  let t_probe = now () and matched_s = t.matches.s in
  Trace.timed "index.probe" t.probe (fun () ->
      for size = max 1 lo to hi do
        match Hashtbl.find_opt t.entries size with
        | None -> ()
        | Some (index, small) ->
          List.iter (fun tj -> if not (Hashtbl.mem checked tj) then add tj) !small;
          for v = 0 to btree.Binary_tree.size - 1 do
            Index.probe_cursor index cursor v (fun s ->
                t.probed <- t.probed + 1;
                let tj = s.Subgraph.tree_id in
                if not (Hashtbl.mem checked tj) then begin
                  let t0 = now () in
                  let m = Subgraph.matches s btree v in
                  Trace.add t.matches (now () -. t0);
                  if m then begin
                    t.matched <- t.matched + 1;
                    add tj
                  end
                end)
          done
      done;
      (* one span per probing tree for all its match tests *)
      Trace.record "subgraph.matches" t_probe (t_probe +. t.matches.s -. matched_s));
  List.rev !pending

(* Index tree [id]: partitioned into δ subgraphs, or kept whole when it
   has fewer than δ nodes. *)
let insert t ~id btree =
  let index, small = entry t btree.Binary_tree.size in
  if btree.Binary_tree.size < t.delta then small := id :: !small
  else begin
    let subgraphs =
      Trace.timed "partition" t.partition (fun () ->
          let part = Partition.partition btree ~delta:t.delta in
          Trace.span "subgraph.of_partition" (fun () -> Subgraph.of_partition ~tree_id:id part))
    in
    Trace.span "index.insert" (fun () ->
        Array.iter
          (fun s ->
            Index.insert index s;
            t.subgraphs <- t.subgraphs + 1)
          subgraphs)
  end

let metrics t =
  let fn = float_of_int in
  [
    metric "partition.us_per_tree" "us" (Trace.mean_us t.partition);
    metric "partition.subgraphs" "count" (fn t.subgraphs);
    metric "index.probe_us_per_tree" "us" (Trace.mean_us t.probe);
    metric "index.probed" "count" (fn t.probed);
    metric "index.matched" "count" (fn t.matched);
    metric "index.match_ratio" "ratio" (ratio (fn t.matched) (fn t.probed));
  ]
