(* Tests for the verification filter cascade: the compiled bound forms,
   the greedy-mapping upper bound, the staged cascade's outcome soundness
   and the end-to-end guarantee that the cascaded PartSJ join returns the
   same pairs and distances as the uncascaded join and the nested-loop
   ground truth. *)

module Tree = Tsj_tree.Tree
module Bounds = Tsj_ted.Bounds
module Zhang_shasha = Tsj_ted.Zhang_shasha
module Constrained = Tsj_ted.Constrained
module Partsj = Tsj_core.Partsj
module Nested_loop = Tsj_join.Nested_loop
module Types = Tsj_join.Types
module Prng = Tsj_util.Prng

(* --- the compiled forms against references over Tree.t --- *)

(* Written over the tree's own child lists and traversals, independently
   of the compiled arrays: every lower bound of {!Bounds.Compiled}, and
   the greedy script's cost. *)
let rec nodes (t : Tree.t) = t :: List.concat_map nodes t.children

(* L1 distance between two bags of ints, given as lists. *)
let bag_distance xs ys =
  let rec go xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> List.length rest
    | x :: xs', y :: ys' ->
      if x = y then go xs' ys' else if x < y then 1 + go xs' ys else 1 + go xs ys'
  in
  go (List.sort compare xs) (List.sort compare ys)

let ref_size_bound a b = abs (Tree.size a - Tree.size b)

let ref_label_bound a b =
  let labels t = List.map (fun (n : Tree.t) -> n.label) (nodes t) in
  (bag_distance (labels a) (labels b) + 1) / 2

let ref_degree_bound a b =
  let degrees t = List.map (fun (n : Tree.t) -> List.length n.children) (nodes t) in
  (bag_distance (degrees a) (degrees b) + 2) / 3

let ref_preorder_bound a b =
  Tsj_ted.String_edit.distance
    (Tsj_tree.Traversal.preorder_labels a)
    (Tsj_tree.Traversal.preorder_labels b)

let ref_postorder_bound a b =
  Tsj_ted.String_edit.distance
    (Tsj_tree.Traversal.postorder_labels a)
    (Tsj_tree.Traversal.postorder_labels b)

let ref_traversal_bound a b = max (ref_preorder_bound a b) (ref_postorder_bound a b)

let rec ref_upper (a : Tree.t) (b : Tree.t) =
  (if a.label = b.label then 0 else 1) + ref_upper_children a.children b.children

and ref_upper_children xs ys =
  match (xs, ys) with
  | x :: xs, y :: ys -> ref_upper x y + ref_upper_children xs ys
  | rest, [] | [], rest -> List.fold_left (fun acc t -> acc + Tree.size t) 0 rest

let rec ref_euler (t : Tree.t) =
  (t.label :: List.concat_map ref_euler t.children) @ [ t.label ]

let ref_euler_bound a b =
  (Tsj_ted.String_edit.distance
     (Array.of_list (ref_euler a))
     (Array.of_list (ref_euler b))
  + 1)
  / 2

let ref_best a b =
  List.fold_left max 0
    [
      ref_size_bound a b;
      ref_label_bound a b;
      ref_degree_bound a b;
      ref_traversal_bound a b;
      ref_euler_bound a b;
    ]

(* Every reference lower bound, by name (the [ted] suite checks each
   against TED). *)
let ref_lower_bounds =
  [
    ("size", ref_size_bound);
    ("label_histogram", ref_label_bound);
    ("degree_histogram", ref_degree_bound);
    ("preorder_string", ref_preorder_bound);
    ("postorder_string", ref_postorder_bound);
    ("traversal", ref_traversal_bound);
    ("euler_string", ref_euler_bound);
    ("best", ref_best);
  ]

let prop_compiled_matches_per_pair =
  Gen.qtest ~count:150 "compiled bounds = per-pair bounds"
    (Gen.arb_tree_pair ~max_size:12 ()) (fun (a, b) ->
      let ca = Bounds.Compiled.of_tree a and cb = Bounds.Compiled.of_tree b in
      List.for_all
        (fun (name, v, r) ->
          if v <> r then
            QCheck.Test.fail_reportf "compiled %s = %d, reference %d on %s / %s" name v r
              (Gen.pp_tree a) (Gen.pp_tree b)
          else true)
        [
          ("size", Bounds.Compiled.size_bound ca cb, ref_size_bound a b);
          ("labels", Bounds.Compiled.label_bound ca cb, ref_label_bound a b);
          ("degrees", Bounds.Compiled.degree_bound ca cb, ref_degree_bound a b);
          ("traversal", Bounds.Compiled.traversal_bound ca cb, ref_traversal_bound a b);
          ("euler", Bounds.Compiled.euler_bound ca cb, ref_euler_bound a b);
          ("best", Bounds.Compiled.best ca cb, ref_best a b);
          ("upper", Bounds.Compiled.upper ca cb, ref_upper a b);
        ])

let prop_compiled_lower_bounds =
  Gen.qtest ~count:150 "every compiled lower bound <= TED"
    (Gen.arb_tree_pair ~max_size:12 ()) (fun (a, b) ->
      let ca = Bounds.Compiled.of_tree a and cb = Bounds.Compiled.of_tree b in
      let d = Zhang_shasha.distance a b in
      List.for_all
        (fun (name, v) ->
          if v > d then
            QCheck.Test.fail_reportf "compiled %s = %d > TED = %d on %s / %s"
              name v d (Gen.pp_tree a) (Gen.pp_tree b)
          else true)
        [
          ("size", Bounds.Compiled.size_bound ca cb);
          ("labels", Bounds.Compiled.label_bound ca cb);
          ("degrees", Bounds.Compiled.degree_bound ca cb);
          ("traversal", Bounds.Compiled.traversal_bound ca cb);
          ("euler", Bounds.Compiled.euler_bound ca cb);
          ("best", Bounds.Compiled.best ca cb);
        ])

let prop_compiled_matches_reference =
  Gen.qtest ~count:200 "compact compiled upper/euler = Tree.t reference"
    (Gen.arb_tree_pair ~max_size:14 ()) (fun (a, b) ->
      let dag = Tsj_tree.Dag.create () in
      let forms t =
        [
          ("of_tree", Bounds.Compiled.of_tree t);
          ("of_prep", Bounds.Compiled.of_prep (Tsj_ted.Ted.preprocess t));
          ( "of_prep consed",
            Bounds.Compiled.of_prep (Tsj_ted.Ted.preprocess_consed (Tsj_ted.Ted.cons dag t)) );
        ]
      in
      let up = ref_upper a b and eu = ref_euler_bound a b in
      List.for_all2
        (fun (name, ca) (_, cb) ->
          let u = Bounds.Compiled.upper ca cb and e = Bounds.Compiled.euler_bound ca cb in
          if u <> up || e <> eu then
            QCheck.Test.fail_reportf "%s: upper %d (ref %d), euler %d (ref %d) on %s / %s"
              name u up e eu (Gen.pp_tree a) (Gen.pp_tree b)
          else true)
        (forms a) (forms b))

(* The compact form keeps four int arrays of [size] entries: at most 4
   words per node plus headers. *)
let test_compiled_words_per_node () =
  let trees =
    Tsj_datagen.Profiles.instantiate Tsj_datagen.Profiles.swissprot ~seed:7 ~n:50
  in
  Array.iter
    (fun t ->
      let n = Tree.size t in
      let words = Obj.reachable_words (Obj.repr (Bounds.Compiled.of_tree t)) in
      if words > (4 * n) + 16 then
        Alcotest.failf "compiled form of a %d-node tree takes %d words (> 4n + 16)" n
          words)
    trees

(* --- greedy-mapping upper bound --- *)

let prop_upper_bounds_ted =
  Gen.qtest ~count:200 "TED <= constrained <= greedy upper"
    (Gen.arb_tree_pair ~max_size:12 ()) (fun (a, b) ->
      let ub = Bounds.Compiled.(upper (of_tree a) (of_tree b)) in
      let ted = Zhang_shasha.distance a b in
      let ced = Constrained.distance a b in
      if not (ted <= ced && ced <= ub) then
        QCheck.Test.fail_reportf "TED %d / CED %d / upper %d on %s / %s" ted ced
          ub (Gen.pp_tree a) (Gen.pp_tree b)
      else true)

let test_upper_zero_on_equal () =
  let t = Tsj_tree.Bracket.of_string_exn "{a{b{c}}{d}{e{f}}}" in
  Alcotest.(check int) "upper t t = 0" 0 Bounds.Compiled.(upper (of_tree t) (of_tree t));
  let c = Bounds.Compiled.of_tree t in
  Alcotest.(check int) "compiled upper t t = 0" 0 (Bounds.Compiled.upper c c)

(* --- cascade outcome soundness --- *)

let prop_cascade_sound =
  Gen.qtest ~count:200 "cascade outcomes are sound for tau in 0..5"
    (Gen.arb_tree_pair ~max_size:12 ()) (fun (a, b) ->
      let ca = Bounds.Compiled.of_tree a and cb = Bounds.Compiled.of_tree b in
      let exact = Zhang_shasha.distance a b in
      let check tau =
        match Bounds.Compiled.cascade ~tau ca cb with
        | Bounds.Compiled.Pruned _ ->
            if exact <= tau then
              QCheck.Test.fail_reportf
                "tau=%d pruned but TED = %d on %s / %s" tau exact
                (Gen.pp_tree a) (Gen.pp_tree b)
            else true
        | Bounds.Compiled.Accept d ->
            if d <> exact || d > tau then
              QCheck.Test.fail_reportf
                "tau=%d accepted with %d but TED = %d on %s / %s" tau d exact
                (Gen.pp_tree a) (Gen.pp_tree b)
            else true
        | Bounds.Compiled.Verify { band } ->
            (* The banded kernel at the cascade's band must decide the
               pair exactly like the full kernel at tau would: the band
               only shrinks below tau when the upper bound certifies
               TED <= band + 1. *)
            let bd = Zhang_shasha.bounded_distance a b band in
            if band < 0 || band > tau then
              QCheck.Test.fail_reportf "tau=%d band=%d out of range" tau band
            else if exact <= tau && bd <> exact then
              QCheck.Test.fail_reportf
                "tau=%d band=%d kernel gives %d but TED = %d on %s / %s" tau
                band bd exact (Gen.pp_tree a) (Gen.pp_tree b)
            else if exact > tau && bd <= tau then
              QCheck.Test.fail_reportf
                "tau=%d band=%d kernel admits %d but TED = %d on %s / %s" tau
                band bd exact (Gen.pp_tree a) (Gen.pp_tree b)
            else true
      in
      List.for_all check [ 0; 1; 2; 3; 4; 5 ])

let test_cascade_negative_tau () =
  let c = Bounds.Compiled.of_tree (Tsj_tree.Bracket.of_string_exn "{a}") in
  Alcotest.check_raises "negative"
    (Invalid_argument "Bounds.Compiled.cascade: negative threshold") (fun () ->
      ignore (Bounds.Compiled.cascade ~tau:(-1) c c))

let test_cascade_identical_trees () =
  (* Identical trees close the sandwich at 0: accepted without a kernel. *)
  let t = Tsj_tree.Bracket.of_string_exn "{a{b}{c{d}}}" in
  let c = Bounds.Compiled.of_tree t in
  match Bounds.Compiled.cascade ~tau:2 c c with
  | Bounds.Compiled.Accept 0 -> ()
  | _ -> Alcotest.fail "expected Accept 0 on identical trees"

(* --- end-to-end: cascaded join = uncascaded join = ground truth --- *)

let forest_of_seed seed n max_size =
  let rng = Prng.create seed in
  Array.of_list (Gen.random_forest rng ~n ~max_size)

let arb_forest =
  QCheck.make
    ~print:(fun (seed, n, max_size) ->
      Printf.sprintf "seed=%d n=%d max_size=%d" seed n max_size)
    (fun st ->
      ( Random.State.int st 0x3FFFFFFF,
        2 + Random.State.int st 14,
        4 + Random.State.int st 12 ))

let prop_cascade_join_equals_truth (seed, n, max_size) =
  let trees = forest_of_seed seed n max_size in
  let tau = 1 + (seed mod 3) in
  let truth = Nested_loop.join ~trees ~tau () in
  let off = Partsj.join ~cascade:false ~trees ~tau () in
  let on_ = Partsj.join ~cascade:true ~trees ~tau () in
  if not (Types.equal_results truth off) then
    QCheck.Test.fail_reportf "cascade:false differs from nested loop (seed=%d)"
      seed
  else if not (Types.equal_results truth on_) then
    QCheck.Test.fail_reportf "cascade:true differs from nested loop (seed=%d)"
      seed
  else if off.Types.stats.Types.n_candidates <> on_.Types.stats.Types.n_candidates
  then
    QCheck.Test.fail_reportf "cascade changed the candidate count (seed=%d)"
      seed
  else if
    Types.cascade_total on_.Types.stats.Types.cascade
    <> on_.Types.stats.Types.n_candidates
  then
    QCheck.Test.fail_reportf
      "cascade counters do not partition the candidates (seed=%d)" seed
  else true

let prop_cascade_join_constrained_metric (seed, n, max_size) =
  (* The greedy script is a valid constrained script, so the cascade stays
     lossless when the verifier metric is the constrained edit distance. *)
  let trees = forest_of_seed seed n max_size in
  let tau = 1 + (seed mod 3) in
  let off = Partsj.join ~metric:Tsj_join.Sweep.Constrained ~cascade:false ~trees ~tau () in
  let on_ = Partsj.join ~metric:Tsj_join.Sweep.Constrained ~cascade:true ~trees ~tau () in
  Types.equal_results off on_

let test_cascade_counters_clustered () =
  (* Near-duplicate-heavy forest: all six counters should be exercised and
     must partition the candidate set exactly. *)
  let rng = Prng.create 7171 in
  let acc = ref [] in
  for _ = 1 to 30 do
    let base = Gen.random_tree rng (4 + Prng.int rng 12) in
    acc := base :: !acc;
    let _, copy =
      Tsj_tree.Edit_op.random_script rng ~labels:Gen.default_alphabet 2 base
    in
    acc := copy :: !acc
  done;
  let trees = Array.of_list !acc in
  List.iter
    (fun tau ->
      let out = Partsj.join ~trees ~tau () in
      let s = out.Types.stats in
      Alcotest.(check int)
        (Printf.sprintf "tau=%d counters partition candidates" tau)
        s.Types.n_candidates
        (Types.cascade_total s.Types.cascade);
      (* Early accepts + kernel runs can only admit result pairs, and every
         result came from one of the two. *)
      let c = s.Types.cascade in
      Alcotest.(check bool)
        (Printf.sprintf "tau=%d results <= early + kernel" tau)
        true
        (s.Types.n_results <= c.Types.early_accepted + c.Types.kernel_verified))
    [ 0; 1; 2; 3 ]

let suite =
  [
    prop_compiled_matches_per_pair;
    prop_compiled_lower_bounds;
    prop_compiled_matches_reference;
    Alcotest.test_case "compiled form: at most 4 words per node" `Quick
      test_compiled_words_per_node;
    prop_upper_bounds_ted;
    Alcotest.test_case "upper zero on equal" `Quick test_upper_zero_on_equal;
    prop_cascade_sound;
    Alcotest.test_case "cascade negative tau" `Quick test_cascade_negative_tau;
    Alcotest.test_case "cascade identical trees" `Quick test_cascade_identical_trees;
    Gen.qtest ~count:25 "cascaded join = uncascaded = nested loop" arb_forest
      prop_cascade_join_equals_truth;
    Gen.qtest ~count:15 "cascade lossless under constrained metric" arb_forest
      prop_cascade_join_constrained_metric;
    Alcotest.test_case "cascade counters (clustered)" `Quick
      test_cascade_counters_clustered;
  ]
