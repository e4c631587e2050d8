(* One answer per question, whatever the path: the batch join, a fold of
   streaming inserts, the static search index, the serving store and the
   budget-degraded streaming query all decide their candidates through
   the shared verifier, and must agree bit for bit (ids and distances)
   with the unbanded Naive TED on every pair; and the batch and streaming
   index drivers generate the same candidates.  Drawn from every dataset
   profile, shrunk to small trees so Naive stays cheap, at τ = 1, 2, 3. *)

module Tree = Tsj_tree.Tree
module Ted = Tsj_ted.Ted
module Profiles = Tsj_datagen.Profiles
module Partsj = Tsj_core.Partsj
module Incremental = Tsj_core.Incremental
module Search = Tsj_core.Search
module Store = Tsj_server.Store
module Types = Tsj_join.Types
module Budget = Tsj_join.Budget

(* The profile's shape (fanout, depth, alphabet, duplicate mix, fragment
   pool) with its trees shrunk to about ten nodes. *)
let small profile =
  let params = { profile.Profiles.params with Tsj_datagen.Generator.avg_size = 10 } in
  { profile with Profiles.params; fragment_depth = min 1 profile.Profiles.fragment_depth }

let n_trees = 14

let by_distance = List.sort (fun (i1, d1) (i2, d2) -> compare (d1, i1) (d2, i2))

let show pairs =
  String.concat " " (List.map (fun (i, j, d) -> Printf.sprintf "%d-%d:%d" i j d) pairs)

let check_paths trees naive tau =
  let n = Array.length trees in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let within i j = if naive.(i).(j) <= tau then Some naive.(i).(j) else None in
  (* the oracle: every pair i < j within τ, and every tree's hits *)
  let truth =
    List.init n (fun j ->
        List.filter_map
          (fun i -> Option.map (fun d -> (i, j, d)) (within i j))
          (List.init j Fun.id))
    |> List.concat |> List.sort compare
  in
  let hits_of q =
    List.init n Fun.id
    |> List.filter_map (fun i -> Option.map (fun d -> (i, d)) (within i q))
    |> by_distance
  in
  let join =
    (Partsj.join ~trees ~tau ()).Types.pairs
    |> List.map (fun p -> (p.Types.i, p.Types.j, p.Types.distance))
    |> List.sort compare
  in
  if join <> truth then
    fail "tau=%d: Partsj.join [%s] differs from Naive [%s]" tau (show join) (show truth);
  (* The two index drivers: a stream fed in the batch sweep order (size,
     then id) probes exactly the batch join's candidates and indexes the
     same subgraphs, under every window mode. *)
  let sweep_order =
    List.stable_sort
      (fun a b -> compare (Tree.size trees.(a)) (Tree.size trees.(b)))
      (List.init n Fun.id)
  in
  List.iter
    (fun index_mode ->
      let out, probe = Partsj.join_with_probe_stats ~index_mode ~trees ~tau () in
      let swept = Incremental.create ~mode:index_mode ~tau () in
      List.iter (fun i -> ignore (Incremental.add swept trees.(i))) sweep_order;
      let batch = (out.Types.stats.Types.n_candidates, probe.Partsj.n_subgraphs_indexed) in
      if Incremental.stats swept <> batch then
        fail "tau=%d: Incremental in sweep order (%d, %d) vs Partsj (%d, %d)" tau
          (fst (Incremental.stats swept)) (snd (Incremental.stats swept)) (fst batch)
          (snd batch))
    Tsj_core.Two_layer_index.[ Two_sided; Paper_rank; Label_only ];
  let inc = Incremental.create ~tau () in
  let folded =
    List.init n (fun j ->
        List.map (fun (i, d) -> (i, j, d)) (Incremental.add inc trees.(j)))
    |> List.concat |> List.sort compare
  in
  if folded <> truth then
    fail "tau=%d: fold of Incremental.add [%s] differs from Naive [%s]" tau (show folded)
      (show truth);
  if Types.cascade_total (Incremental.cascade inc) <> fst (Incremental.stats inc) then
    fail "tau=%d: Incremental stage counters do not partition its candidates" tau;
  let idx = Search.build ~tau trees in
  let store =
    match Store.open_ ~tau () with Ok s -> s | Error e -> fail "Store.open_: %s" e
  in
  Array.iter (fun t -> ignore (Store.add store t)) trees;
  let expired = Budget.create () in
  Budget.cancel expired;
  Array.iteri
    (fun q tree ->
      let want = hits_of q in
      if Search.query idx tree <> want then fail "tau=%d: Search.query %d differs" tau q;
      if (Store.query store tree).Incremental.hits <> want then
        fail "tau=%d: Store.query %d differs" tau q;
      (* the degraded path: nothing verified, every true hit reported
         inside its bound sandwich *)
      let r = Incremental.query ~budget:expired inc tree in
      if r.Incremental.hits <> [] || not r.Incremental.degraded then
        fail "tau=%d: expired query %d was not degraded" tau q;
      List.iter
        (fun (id, lower, upper) ->
          let d = naive.(id).(q) in
          if not (lower <= d && d <= upper) then
            fail "tau=%d: query %d, tree %d: TED %d outside [%d, %d]" tau q id d lower
              upper)
        r.Incremental.unverified;
      List.iter
        (fun (id, _) ->
          if not (List.exists (fun (u, _, _) -> u = id) r.Incremental.unverified) then
            fail "tau=%d: degraded query %d lost hit %d" tau q id)
        want)
    trees;
  Store.close store;
  true

let prop_profile profile =
  Gen.qtest ~count:4
    (Printf.sprintf "paths agree with Naive (%s, tau 1-3)" profile.Profiles.name)
    QCheck.(int_bound 100_000)
    (fun seed ->
      let trees = Profiles.instantiate (small profile) ~seed ~n:n_trees in
      let preps = Array.map (fun t -> Ted.preprocess t) trees in
      let naive =
        Array.map
          (fun a -> Array.map (fun b -> Ted.distance_prep ~algorithm:Ted.Naive a b) preps)
          preps
      in
      List.for_all (check_paths trees naive) [ 1; 2; 3 ])

let suite = List.map prop_profile Profiles.all
