(* Workload [join]: the paper's own experiment — a PartSJ self-join of
   the swissprot profile through [Partsj.join], one domain, library
   defaults.  No sockets, no disk. *)

open Common
module Tree = Tsj_tree.Tree
module Binary_tree = Tsj_tree.Binary_tree
module Dag = Tsj_tree.Dag
module Ted = Tsj_ted.Ted
module Bounds = Tsj_ted.Bounds
module Types = Tsj_join.Types
module Prng = Tsj_util.Prng
module Partsj = Tsj_core.Partsj
module Index = Tsj_core.Two_layer_index

type spec = { n : int; pool : int; tau : int; sample : int }

let full = { n = 4000; pool = 4400; tau = 3; sample = 64 }

let tiny = { n = 160; pool = 240; tau = 3; sample = 16 }

let generate ~seed spec = sample ~seed Tsj_datagen.Profiles.swissprot ~pool:spec.pool ~n:spec.n

let key (p : Types.pair) = (p.i, p.j, p.distance)

let sorted_pairs (out : Types.output) = List.sort compare (List.map key out.pairs)

(* Output checks: a seeded sample of reported pairs re-verified with the
   unbanded kernel, and a seeded sample of unreported pairs inside the
   size window confirmed to lie beyond τ. *)
let check_output ~seed spec trees (out : Types.output) =
  let tau = spec.tau in
  let rng = Prng.create (seed + 7919) in
  let reported = Array.of_list out.pairs in
  let nr = Array.length reported in
  for _ = 1 to min spec.sample nr do
    let p = reported.(Prng.int rng nr) in
    let d = Ted.distance trees.(p.i) trees.(p.j) in
    check (d = p.distance && d <= tau) "join: pair (%d,%d) reported at %d, TED is %d" p.i p.j
      p.distance d
  done;
  let is_result = Hashtbl.create (2 * nr + 1) in
  Array.iter (fun (p : Types.pair) -> Hashtbl.replace is_result (p.i, p.j) ()) reported;
  let n = Array.length trees in
  let order = Array.init n Fun.id in
  let size i = Tree.size trees.(i) in
  Array.sort (fun a b -> compare (size a, a) (size b, b)) order;
  let checked = ref 0 and attempts = ref 0 in
  while !checked < spec.sample && !attempts < 100 * spec.sample do
    incr attempts;
    let b = 1 + Prng.int rng (n - 1) in
    let lo = ref b in
    while !lo > 0 && size order.(b) - size order.(!lo - 1) <= tau do
      decr lo
    done;
    if !lo < b then begin
      let x = order.(b) and y = order.(!lo + Prng.int rng (b - !lo)) in
      let i = min x y and j = max x y in
      if not (Hashtbl.mem is_result (i, j)) then begin
        incr checked;
        let d = Ted.distance trees.(i) trees.(j) in
        check (d > tau) "join: pair (%d,%d) unreported but TED %d <= %d" i j d tau
      end
    end
  done

let failed_candidates (out : Types.output) = out.stats.cascade.quarantined

(* --- untraced run: end-to-end metrics --- *)

let run ~seed ~seconds ~setup_reps spec =
  let setups = ref [] and trees = ref [||] in
  for _ = 1 to setup_reps do
    trees := [||];
    Gc.compact ();
    let t, dt = time (fun () -> generate ~seed spec) in
    trees := t;
    setups := dt :: !setups
  done;
  let trees = !trees in
  let join () = Partsj.join ~trees ~tau:spec.tau () in
  (* Warm-up: lazily created per-domain kernel state (arena, memo
     tables) is paid once here, not in the first timed join. *)
  let reference = join () in
  check_output ~seed spec trees reference;
  let expect = sorted_pairs reference in
  let walls = ref [] and cpus = ref [] and peaks = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let t_end = now () +. seconds in
  while now () < t_end || List.length !walls < 3 do
    (* Peak resident memory of each join on its own: the process-wide
       peak would depend on when the collector last ran. *)
    Gc.full_major ();
    reset_hwm ();
    let cpu0 = cpu_s () in
    let out, dt = time join in
    cpus := (cpu_s () -. cpu0) :: !cpus;
    peaks := vm_hwm_mb () :: !peaks;
    walls := dt :: !walls;
    attempted := !attempted + out.stats.n_candidates;
    failed := !failed + failed_candidates out;
    check (sorted_pairs out = expect) "join: repeated join disagrees with the first"
  done;
  let ms = Array.of_list (List.map (fun s -> 1000.0 *. s) !walls) in
  (* Mean, not median: the host alternates between faster and slower
     spells of a few seconds, and the median of a dozen joins snaps to
     one of them where the mean follows their mix. *)
  let cpu_ms = 1000.0 *. List.fold_left ( +. ) 0.0 !cpus /. float_of_int (List.length !cpus) in
  let p50 = median ms and p99, pct = tail ms in
  report "join: n=%d tau=%d  %d joins, %d pairs, %d candidates/join, p50 %.1f ms, tail (p%.0f) %.1f ms"
    spec.n spec.tau (Array.length ms) (List.length expect) reference.stats.n_candidates p50 pct p99;
  let setup_s = median (Array.of_list !setups) in
  ( [
      metric "setup_s" "s" setup_s;
      metric "cpu_ms_per_op" "ms" cpu_ms;
      metric "mem_mb" "MiB" (median (Array.of_list !peaks));
    ],
    [
      metric "join_s" "s" (p50 /. 1000.0);
      metric "join_tail_ms" "ms" p99;
      metric "trees_per_s" "1/s" (float_of_int spec.n /. (p50 /. 1000.0));
      metric "join_samples" "count" (float_of_int (Array.length ms));
      metric "failed_ratio" "share" (ratio (float_of_int !failed) (float_of_int !attempted));
    ],
    !attempted,
    !failed )

(* --- traced run: the sweep recomposed from public functions --- *)

type acc = {
  cons : Trace.acc;
  prep : Trace.acc;
  compile : Trace.acc;
  cascade : Trace.acc;
  near : Trace.acc;  (* kernel calls that found TED <= τ *)
  far : Trace.acc;
  mutable candidates : int;
  mutable pruned : int;
  mutable early : int;
  mutable cells : float;  (* Σ n1·n2 over kernel calls *)
}

let new_acc () =
  let t = Trace.acc in
  {
    cons = t (); prep = t (); compile = t (); cascade = t (); near = t (); far = t ();
    candidates = 0; pruned = 0; early = 0; cells = 0.0;
  }

(* Algorithm 1 of the paper, sequentially, with every layer called
   through its public interface: preprocessing (consing, TED prep,
   compiled bounds, LC-RS form and its twig cursor), then in ascending
   size order probe the size window [|Ti| - τ, |Ti|], verify each
   candidate (cascade, then the banded kernel) and index the tree.
   Returns the sorted result pairs. *)
let recompose ~tau trees a mirror dag =
  let n = Array.length trees in
  let data =
    Array.init n (fun i ->
        Trace.span ~req:i "join.prep" (fun () ->
            let tree = trees.(i) in
            let c = Trace.timed "dag.cons" a.cons (fun () -> Ted.cons dag tree) in
            let prep = Trace.timed "ted.preprocess" a.prep (fun () -> Ted.preprocess_consed c) in
            let bounds = Trace.timed "bounds.compile" a.compile (fun () -> Bounds.Compiled.of_tree tree) in
            let btree = Trace.span "binary_tree.of_tree" (fun () -> Binary_tree.of_tree tree) in
            let cursor = Trace.span "index.cursor" (fun () -> Index.cursor btree) in
            (prep, bounds, btree, cursor)))
  in
  let sizes = Array.map Tree.size trees in
  let order = Array.init n Fun.id in
  Array.sort (fun x y -> compare (sizes.(x), x) (sizes.(y), y)) order;
  let results = ref [] in
  Array.iter
    (fun ti ->
      Trace.span ~req:ti "join.tree" (fun () ->
          let prep_i, bounds_i, btree_i, cursor_i = data.(ti) in
          let size_i = sizes.(ti) in
          List.iter
            (fun tj ->
              a.candidates <- a.candidates + 1;
              let prep_j, bounds_j, _, _ = data.(tj) in
              let outcome =
                Trace.timed "cascade" a.cascade (fun () -> Bounds.Compiled.cascade ~tau bounds_i bounds_j)
              in
              let dist =
                match outcome with
                | Bounds.Compiled.Pruned _ ->
                  a.pruned <- a.pruned + 1;
                  tau + 1
                | Bounds.Compiled.Accept d ->
                  a.early <- a.early + 1;
                  d
                | Bounds.Compiled.Verify { band } ->
                  let t0 = now () in
                  let d =
                    Trace.span "ted.kernel" (fun () ->
                        Ted.bounded_distance_prep ~algorithm:Ted.Hybrid prep_i prep_j band)
                  in
                  Trace.add (if d <= tau then a.near else a.far) (now () -. t0);
                  a.cells <- a.cells +. float_of_int (size_i * sizes.(tj));
                  d
              in
              if dist <= tau then results := (min ti tj, max ti tj, dist) :: !results)
            (Mirror.candidates mirror ~lo:(size_i - tau) ~hi:size_i btree_i cursor_i);
          Mirror.insert mirror ~id:ti btree_i))
    order;
  List.sort compare !results

let run_traced ~seed spec =
  let trees = generate ~seed spec in
  let tau = spec.tau in
  let phases = ref None in
  let (out, probe), join_s =
    time (fun () ->
        Partsj.join_with_probe_stats ~on_phases:(fun p -> phases := Some p) ~trees ~tau ())
  in
  check_output ~seed spec trees out;
  let st = out.stats in
  (* Recomposition, once untraced (overhead reference), once traced. *)
  let untraced_s =
    snd (time (fun () -> ignore (recompose ~tau trees (new_acc ()) (Mirror.create ~tau) (Dag.create ()))))
  in
  Trace.reset ();
  Trace.enabled := true;
  let a = new_acc () and mirror = Mirror.create ~tau and dag = Dag.create () in
  let pairs, traced_s =
    time (fun () -> Trace.span "join.recompose" (fun () -> recompose ~tau trees a mirror dag))
  in
  Trace.enabled := false;
  (* The recomposition must reproduce the library's answer, or its
     per-layer numbers describe some other computation. *)
  check (pairs = sorted_pairs out)
    "join: recomposed sweep found %d pairs, Partsj.join %d" (List.length pairs) st.n_results;
  check (a.candidates = st.n_candidates)
    "join: recomposed sweep generated %d candidates, Partsj.join %d" a.candidates st.n_candidates;
  check (mirror.probed = probe.n_probed && mirror.matched = probe.n_matched)
    "join: recomposed probe counts %d/%d differ from Partsj's %d/%d" mirror.probed mirror.matched
    probe.n_probed probe.n_matched;
  let c = st.cascade in
  let kernel = a.near.n + a.far.n in
  check
    (a.pruned = c.pruned_size + c.pruned_labels + c.pruned_degrees + c.pruned_sed
    && a.early = c.early_accepted && kernel = c.kernel_verified)
    "join: recomposed cascade decisions differ from Partsj's";
  let prep_s, sweep_s =
    match !phases with Some p -> (p.prep_wall_s, p.sweep_wall_s) | None -> (nan, nan)
  in
  let fn = float_of_int in
  report "join traced: Partsj.join %.3f s; recomposition %.3f s untraced, %.3f s traced; %d spans"
    join_s untraced_s traced_s !Trace.count;
  ( [
      metric "partsj.prep_s" "s" prep_s;
      metric "partsj.sweep_s" "s" sweep_s;
      metric "partsj.candidate_s" "s" st.candidate_time_s;
      metric "partsj.verify_s" "s" st.verify_time_s;
      metric "partsj.candidates" "count" (fn st.n_candidates);
      metric "partsj.precision" "ratio" (ratio (fn st.n_results) (fn st.n_candidates));
      metric "cascade.compile_us_per_tree" "us" (Trace.mean_us a.compile);
      metric "cascade.us_per_candidate" "us" (Trace.mean_us a.cascade);
      metric "cascade.pruned" "count" (fn a.pruned);
      metric "cascade.early_accepted" "count" (fn a.early);
      metric "cascade.kernel_verified" "count" (fn kernel);
      metric "cascade.decided_share" "ratio" (ratio (fn (a.candidates - kernel)) (fn a.candidates));
      metric "ted.calls" "count" (fn kernel);
      metric "ted.preprocess_us_per_tree" "us" (Trace.mean_us a.prep);
      metric "ted.us_per_call.near" "us" (Trace.mean_us a.near);
      metric "ted.us_per_call.far" "us" (Trace.mean_us a.far);
      metric "ted.ns_per_cell_est" "ns" (1e9 *. ratio (a.near.s +. a.far.s) a.cells);
      metric "dag.sharing" "ratio" (Dag.sharing dag);
      metric "dag.cons_us_per_tree" "us" (Trace.mean_us a.cons);
      metric "memo.hit_ratio" "ratio"
        (ratio (fn c.memo_hits) (fn (c.memo_hits + c.memo_misses)));
      metric "trace.overhead_pct" "%" (100.0 *. ratio (traced_s -. untraced_s) untraced_s);
    ]
    @ Mirror.metrics mirror,
    st.n_candidates,
    failed_candidates out )
