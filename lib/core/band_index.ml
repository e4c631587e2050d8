module Binary_tree = Tsj_tree.Binary_tree
module Int_table = Tsj_util.Int_table

(* One size's inverted list: the two-layer index of its δ-partitionable
   trees plus the overflow list of sub-δ trees, newest first. *)
type entry = { index : Two_layer_index.t; mutable small : int list }

type t = {
  tau : int;
  mode : Two_layer_index.mode;
  delta : int;
  entries : entry Int_table.t;
}

let create ?(mode = Two_layer_index.Two_sided) ~tau () =
  if tau < 0 then invalid_arg "Band_index.create: negative threshold";
  { tau; mode; delta = (2 * tau) + 1; entries = Int_table.create 64 }

let entry t size =
  match Int_table.find_opt t.entries size with
  | Some e -> e
  | None ->
    let e = { index = Two_layer_index.create ~mode:t.mode ~tau:t.tau (); small = [] } in
    Int_table.add t.entries size e;
    e

let add ?rng ?also t ~id btree =
  let size = btree.Binary_tree.size in
  let targets =
    match also with None -> [ entry t size ] | Some u -> [ entry t size; entry u size ]
  in
  if size < t.delta then begin
    List.iter (fun e -> e.small <- id :: e.small) targets;
    0
  end
  else begin
    let part =
      match rng with
      | None -> Partition.partition btree ~delta:t.delta
      | Some rng -> Partition.random_partition rng btree ~delta:t.delta
    in
    let subgraphs = Subgraph.of_partition ~tree_id:id part in
    Array.iter
      (fun s -> List.iter (fun e -> Two_layer_index.insert e.index s) targets)
      subgraphs;
    Array.length subgraphs
  end

type probe = { ids : int list; probed : int; matched : int; small_hits : int }

let probe t ~lo ~hi btree cursor =
  let checked = Int_table.create 16 in
  let ids = ref [] and probed = ref 0 and matched = ref 0 and small_hits = ref 0 in
  let found tj =
    Int_table.add checked tj ();
    ids := tj :: !ids
  in
  for size = Int.max 1 lo to hi do
    match Int_table.find_opt t.entries size with
    | None -> ()
    | Some e ->
      List.iter
        (fun tj ->
          if not (Int_table.mem checked tj) then begin
            incr small_hits;
            found tj
          end)
        e.small;
      if Two_layer_index.n_subgraphs e.index > 0 then begin
        let cursor = Lazy.force cursor in
        for v = 0 to btree.Binary_tree.size - 1 do
          Two_layer_index.probe_cursor e.index cursor v (fun s ->
              incr probed;
              let tj = s.Subgraph.tree_id in
              if (not (Int_table.mem checked tj)) && Subgraph.matches s btree v then begin
                incr matched;
                found tj
              end)
        done
      end
  done;
  { ids = List.rev !ids; probed = !probed; matched = !matched; small_hits = !small_hits }
