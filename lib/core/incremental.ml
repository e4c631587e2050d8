module Tree = Tsj_tree.Tree
module Binary_tree = Tsj_tree.Binary_tree
module Ted = Tsj_ted.Ted
module Int_table = Tsj_util.Int_table

type t = {
  tau : int;
  band : Band_index.t;
  mutable forms : Verifier.form array;
      (* growable; slot i = tree id i: the stored tree's TED prep and
         compiled bounds, both built once at insert *)
  mutable count : int;
  exact : (int, int list) Hashtbl.t;
      (* structural hash -> ids, newest first; collisions are resolved
         by [Tree.equal].  Serves tau = 0 point queries without probing
         or TED: distance 0 is exactly structural equality. *)
  dag : Tsj_tree.Dag.t;
      (* hash-consing store shared by every inserted tree.  [add] and
         [insert] (the only mutators, and like every index mutation
         single-writer) intern there; the stored tree becomes the shared
         structural view, so repeated subtrees across the stream cost
         one node, and the consed preps' root ids unlock the equal-root
         checks and the whole-pair result cache. *)
  tally : Verifier.Tally.t;  (* how every verified candidate was decided *)
  mutable n_candidates : int;
  mutable n_indexed : int;
}

let create ?mode ~tau () =
  if tau < 0 then invalid_arg "Incremental.create: negative threshold";
  {
    tau;
    band = Band_index.create ?mode ~tau ();
    forms = [||];
    count = 0;
    exact = Hashtbl.create 64;
    dag = Tsj_tree.Dag.create ();
    tally = Verifier.Tally.create ();
    n_candidates = 0;
    n_indexed = 0;
  }

(* Deep structural hash: the default [Hashtbl.hash] caps the traversal
   at 10 meaningful nodes, which would lump most real trees into a
   handful of buckets. *)
let tree_key tree = Hashtbl.hash_param 1024 4096 tree

let tau t = t.tau

let n_trees t = t.count

let tree t id =
  if id < 0 || id >= t.count then invalid_arg "Incremental.tree: unknown id";
  Verifier.tree t.forms.(id)

let stats t = (t.n_candidates, t.n_indexed)

let cascade t = Verifier.Tally.cascade t.tally

let grow t form =
  let cap = Array.length t.forms in
  if t.count = cap then begin
    let forms = Array.make (max 16 (2 * cap)) form in
    Array.blit t.forms 0 forms 0 cap;
    t.forms <- forms
  end

(* Candidate ids among the already-inserted trees for a probe of shape
   [btree], over the [size ± tau] band, in reverse discovery order.  The
   cursor is built only if some size in the band has subgraphs, so a
   probe whose whole band is empty — common in streams with disparate
   tree sizes — costs only the band scan. *)
let band_candidates t ~tau btree =
  let size = btree.Binary_tree.size in
  let r =
    Band_index.probe t.band ~lo:(size - tau) ~hi:(size + tau) btree
      (lazy (Two_layer_index.cursor btree))
  in
  List.rev r.Band_index.ids

let candidates t ~tau q =
  if tau > t.tau then
    invalid_arg
      (Printf.sprintf "Incremental.candidates: tau = %d exceeds the index threshold %d"
         tau t.tau);
  if tau < 0 then invalid_arg "Incremental.candidates: negative threshold";
  List.sort compare (band_candidates t ~tau (Binary_tree.of_tree q))

let find_equal t q =
  Option.value (Hashtbl.find_opt t.exact (tree_key q)) ~default:[]
  |> List.filter (fun id -> Tree.equal (tree t id) q)
  |> function
  | [] -> None
  | ids -> Some (List.fold_left min max_int ids)

let distance t ~tau qform id = Verifier.distance ~tally:t.tally ~tau qform t.forms.(id)

let form t id =
  if id < 0 || id >= t.count then invalid_arg "Incremental.form: unknown id";
  t.forms.(id)

(* Store [tree] under the next id: intern it first so the stored slot
   is the shared structural view (a duplicate of an earlier tree is then
   physically equal to it) and the consed prep carries its root DAG id
   for the verifier and [Ted].  Consing is an optimisation — if it raises
   on a pathological shape, fall back to an unconsed prep of the tree as
   given.  Returns the id, the stored form and the LC-RS form to probe
   and partition. *)
let store t tree =
  let id = t.count in
  let prep =
    match Ted.cons t.dag tree with
    | c -> Ted.preprocess_consed c
    | exception _ -> Ted.preprocess tree
  in
  let form = Verifier.of_prep prep in
  let tree = Verifier.tree form in
  grow t form;
  t.forms.(id) <- form;
  t.count <- t.count + 1;
  (let key = tree_key tree in
   let ids = Option.value (Hashtbl.find_opt t.exact key) ~default:[] in
   Hashtbl.replace t.exact key (id :: ids));
  (id, form, Binary_tree.of_tree tree)

let index t id btree = t.n_indexed <- t.n_indexed + Band_index.add t.band ~id btree

let add t tree =
  let id, form, btree = store t tree in
  (* 1. Probe: candidates among all previously inserted trees in the
     size band, in either direction. *)
  let pending = band_candidates t ~tau:t.tau btree in
  (* 2. Verify. *)
  let results =
    List.filter_map
      (fun tj ->
        t.n_candidates <- t.n_candidates + 1;
        let d = distance t ~tau:t.tau form tj in
        if d <= t.tau then Some (tj, d) else None)
      pending
    |> List.sort compare
  in
  (* 3. Index the new tree. *)
  index t id btree;
  results

let insert t tree =
  let id, _, btree = store t tree in
  index t id btree

(* --- non-mutating queries (the serving path) --- *)

type query_result = {
  hits : (int * int) list;
  degraded : bool;
  unverified : (int * int * int) list;
}

(* Verification runs in chunks so a per-request budget is polled at a
   bounded interval even when the chunk itself fans out over domains.
   Chunks must clear [Parallel.map]'s small-input cutoff (64) or the
   [domains] knob would silently do nothing. *)
let verify_chunk_size = 128

let query ?budget ?(domains = 1) ?tau t q =
  let tau = Option.value tau ~default:t.tau in
  if tau > t.tau then
    invalid_arg
      (Printf.sprintf "Incremental.query: tau = %d exceeds the index threshold %d" tau
         t.tau);
  if tau < 0 then invalid_arg "Incremental.query: negative threshold";
  if domains < 1 then invalid_arg "Incremental.query: domains must be >= 1";
  if tau = 0 then begin
    (* Point query: TED 0 is exactly structural equality, so the
       exact-match hash answers without probing, preprocessing or any
       distance computation — this is the hot read of the serving
       path. *)
    let hits =
      Option.value (Hashtbl.find_opt t.exact (tree_key q)) ~default:[]
      |> List.filter (fun id -> Tree.equal (tree t id) q)
      |> List.sort compare
      |> List.map (fun id -> (id, 0))
    in
    { hits; degraded = false; unverified = [] }
  end
  else begin
  let cands = Array.of_list (candidates t ~tau q) in
  let qform = Verifier.of_tree q in
  let n = Array.length cands in
  let hits = ref [] in
  let unverified = ref [] in
  let degraded = ref false in
  let live () =
    match budget with None -> true | Some b -> Tsj_join.Budget.live b
  in
  let chunk_from lo =
    let hi = min n (lo + verify_chunk_size) in
    let ds =
      Tsj_join.Parallel.map ~domains
        (fun tj -> distance t ~tau qform tj)
        (Array.sub cands lo (hi - lo))
    in
    Array.iteri
      (fun k d -> if d <= tau then hits := (cands.(lo + k), d) :: !hits)
      ds;
    hi
  in
  let rec go lo =
    if lo < n then
      if live () then go (chunk_from lo)
      else begin
        (* Over budget: the remaining candidates are reported with their
           bound sandwich (from the compiled forms, no kernel) instead of
           hanging on the exact kernel.  A candidate whose lower bound
           already exceeds τ is discarded — it is provably not a
           result. *)
        degraded := true;
        for k = lo to n - 1 do
          let tj = cands.(k) in
          let lower, upper = Verifier.sandwich qform t.forms.(tj) in
          if lower <= tau then unverified := (tj, lower, upper) :: !unverified
        done
      end
  in
  go 0;
  {
    hits =
      List.sort
        (fun (i1, d1) (i2, d2) -> if d1 <> d2 then compare d1 d2 else compare i1 i2)
        !hits;
    degraded = !degraded;
    unverified = List.sort compare !unverified;
  }
  end

let nearest ~k t q =
  if k < 0 then invalid_arg "Incremental.nearest: negative k";
  if k = 0 then []
  else begin
    let qform = Verifier.of_tree q in
    let qb = Binary_tree.of_tree q in
    let dist_cache = Int_table.create 64 in
    let dist tj =
      match Int_table.find_opt dist_cache tj with
      | Some d -> d
      | None ->
        let d = distance t ~tau:t.tau qform tj in
        Int_table.add dist_cache tj d;
        d
    in
    let sorted_hits tau' =
      Int_table.fold
        (fun tj d acc -> if d <= tau' then (tj, d) :: acc else acc)
        dist_cache []
      |> List.sort (fun (i1, d1) (i2, d2) ->
             if d1 <> d2 then compare d1 d2 else compare i1 i2)
    in
    (* Expand the radius until k trees are within it (see Search.nearest:
       every tree within radius tau' is found by the radius-tau' candidate
       set, so once hits >= k the closest k are final). *)
    let rec expand tau' =
      List.iter (fun tj -> ignore (dist tj)) (band_candidates t ~tau:tau' qb);
      let hits = sorted_hits tau' in
      if List.length hits >= k || tau' = t.tau then hits else expand (tau' + 1)
    in
    let hits = expand 0 in
    List.filteri (fun i _ -> i < k) hits
  end
