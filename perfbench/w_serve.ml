(* Workloads [serve-read] and [serve-ingest]: an in-process
   [Tsj_server.Server] on a Unix socket, preloaded through [Store], driven
   by the open-loop generator of [Loadgen] over the binary protocol. *)

open Common
module Tree = Tsj_tree.Tree
module Binary_tree = Tsj_tree.Binary_tree
module Dag = Tsj_tree.Dag
module Edit_op = Tsj_tree.Edit_op
module Ted = Tsj_ted.Ted
module Memo = Tsj_ted.Memo
module Prng = Tsj_util.Prng
module Profiles = Tsj_datagen.Profiles
module Index = Tsj_core.Two_layer_index
module Protocol = Tsj_server.Protocol
module Server = Tsj_server.Server
module Store = Tsj_server.Store

(* The capacity ladder: rung [k] offers [nominal * 1.25 ** (k / 4)]
   requests per second (k = 2 is a step of 1.118x).  The rungs run in
   ascending order after the nominal phase, each with a fixed operation
   count, so the work done — and for a writing workload the store's
   growth — does not depend on the outcome. *)
type ladder = { rungs : int list; rung_ops : int }

type spec = {
  name : string;
  profile : Profiles.t;
  n : int;  (* trees preloaded *)
  pool : int;  (* corpus the preload and the ADDs are drawn from *)
  tau : int;  (* store threshold, and the τ of every QUERY *)
  durable : bool;  (* journal + fsync in a store directory *)
  knn_share : float;
  add_share : float;  (* the rest of the mix is QUERY *)
  k : int;  (* KNN k *)
  max_edits : int;  (* queries are stored trees perturbed by 0..max_edits edits *)
  nominal : float;  (* requests per second *)
  nominal_share : float;  (* share of --seconds spent at the nominal rate *)
  limit_ms : float;  (* latency limit on the tail of every operation *)
  ladder : ladder;
  sample : int;  (* served replies re-checked in process *)
}

let rung_rate spec k = spec.nominal *. (1.25 ** (float_of_int k /. 4.0))

let read_full =
  {
    name = "serve-read";
    profile = Profiles.swissprot;
    n = 4000;
    pool = 4400;
    tau = 2;
    durable = false;
    knn_share = 0.1;
    add_share = 0.0;
    k = 5;
    max_edits = 3;
    nominal = 100.0;
    nominal_share = 0.6;
    limit_ms = 10.0;
    ladder = { rungs = [ 16; 20; 24; 28; 32; 36; 40 ]; rung_ops = 300 };
    sample = 200;
  }

let ingest_full =
  {
    name = "serve-ingest";
    profile = Profiles.redundant;
    n = 1000;
    pool = 4000;
    tau = 2;
    durable = true;
    knn_share = 0.0;
    add_share = 0.5;
    k = 5;
    max_edits = 3;
    nominal = 100.0;
    nominal_share = 0.6;
    limit_ms = 50.0;
    ladder = { rungs = [ 2; 4; 6; 8; 10; 12; 14; 16 ]; rung_ops = 150 };
    sample = 200;
  }

let read_tiny = { read_full with n = 150; pool = 200; ladder = { rungs = [ 4 ]; rung_ops = 40 }; sample = 20 }

let ingest_tiny = { ingest_full with n = 60; pool = 400; ladder = { rungs = [ 4 ]; rung_ops = 40 }; sample = 20 }

(* --- inputs --- *)

type inputs = {
  stored : Tree.t array;  (* the preload *)
  fresh : Tree.t array;  (* trees for ADD, in order of use *)
  mutable next_fresh : int;
  labels : Tsj_tree.Label.t array;
}

let generate ~seed spec ~fresh =
  if spec.n + fresh > spec.pool then invalid_arg "generate: corpus too small";
  let all = sample ~seed spec.profile ~pool:spec.pool ~n:(spec.n + fresh) in
  {
    stored = Array.sub all 0 spec.n;
    fresh = Array.sub all spec.n fresh;
    next_fresh = 0;
    labels = Tsj_datagen.Generator.alphabet spec.profile.Profiles.params;
  }

(* One phase's requests: kinds by the mix, queries perturbed from stored
   trees, ADDs of the next fresh trees, exponential inter-arrivals. *)
let requests ~rng spec inputs n =
  Array.init n (fun _ ->
      let u = Prng.float rng in
      if u < spec.add_share then begin
        let tree = inputs.fresh.(inputs.next_fresh) in
        inputs.next_fresh <- inputs.next_fresh + 1;
        Protocol.Add { seq = None; tree }
      end
      else begin
        let base = inputs.stored.(Prng.int rng (Array.length inputs.stored)) in
        let edits = Prng.int rng (spec.max_edits + 1) in
        let _, tree = Edit_op.random_script rng ~labels:inputs.labels edits base in
        if u < spec.add_share +. spec.knn_share then Protocol.Knn { k = spec.k; tree }
        else Protocol.Query { tau = spec.tau; tree }
      end)

let kind_of = function
  | Protocol.Add _ -> Loadgen.Add
  | Protocol.Knn _ -> Loadgen.Knn
  | _ -> Loadgen.Query

type phase = { reqs : Protocol.request array; ops : Loadgen.op array; id_base : int }

let next_id = ref 0

let make_phase ~rng ~rate spec inputs n =
  let reqs = requests ~rng spec inputs n in
  let dues = Loadgen.schedule rng ~rate n in
  let id_base = !next_id in
  next_id := !next_id + n;
  let ops =
    Array.mapi
      (fun i req ->
        let id = id_base + i in
        let frame =
          Trace.span ~req:id "protocol.encode_request" (fun () -> Loadgen.encode ~id req)
        in
        { Loadgen.due = dues.(i); kind = kind_of req; frame })
      reqs
  in
  { reqs; ops; id_base }

(* --- the server under test --- *)

type env = {
  srv : Server.t;
  fd : Unix.file_descr;
  sock : string;
  dir : string option;
}

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let preload store trees =
  let n = Array.length trees in
  let i = ref 0 in
  while !i < n do
    let m = min 64 (n - !i) in
    Array.iter
      (function Ok _ -> () | Error e -> failwith ("preload: " ^ e))
      (Store.add_batch store (Array.init m (fun k -> (None, trees.(!i + k)))));
    i := !i + m
  done

let start ~tag spec trees =
  let sock = Printf.sprintf "%s.sock" tag in
  let dir = if spec.durable then Some (Printf.sprintf "%s.store" tag) else None in
  Option.iter remove_tree dir;
  let cfg = Server.default_config (Protocol.Unix_path sock) ~tau:spec.tau in
  match Server.create { cfg with dir } with
  | Error e -> failwith ("server: " ^ e)
  | Ok srv ->
    preload (Server.store srv) trees;
    Server.start srv;
    { srv; fd = Loadgen.connect sock; sock; dir }

let stop env =
  Unix.close env.fd;
  Server.drain env.srv;
  Server.wait env.srv;
  remove_tree env.sock

(* Generate inputs and bring up a preloaded server [reps] times, keeping
   the last; returns it with the median set-up time. *)
let setup ~seed ~reps spec ~fresh =
  let times = ref [] and last = ref None in
  for r = 1 to reps do
    Option.iter
      (fun (env, _) ->
        stop env;
        Option.iter remove_tree env.dir)
      !last;
    last := None;
    (* Only one preloaded store is ever live: the peak resident set
       measures one set-up, not the garbage of the previous ones. *)
    Gc.compact ();
    let (env, inputs), dt =
      time (fun () ->
          let inputs = generate ~seed spec ~fresh in
          (start ~tag:(Printf.sprintf "s%d" r) spec inputs.stored, inputs))
    in
    times := dt :: !times;
    last := Some (env, inputs)
  done;
  (Option.get !last, median (Array.of_list !times))

let give_up_s = 10.0

(* Processor time spent while phases ran (server and generator alike),
   excluding the set-up, input generation and checks in between. *)
let phase_cpu = ref 0.0

let run_phase env ph =
  let c0 = cpu_s () in
  let r = Loadgen.run env.fd ~id_base:ph.id_base ~give_up_s ph.ops in
  phase_cpu := !phase_cpu +. (cpu_s () -. c0);
  r

(* A rung passes when nothing failed, the tail latency is within the
   limit, and the backlog did not grow (the last quarter of the requests
   is not markedly slower than the first). *)
let passes spec (r : Loadgen.result) =
  let lat = Loadgen.all_latencies_ms r in
  let n = Array.length lat in
  let q = max 1 (n / 4) in
  let first = median (Array.sub lat 0 q) and last = median (Array.sub lat (n - q) q) in
  Loadgen.failed r = 0 && fst (tail lat) <= spec.limit_ms && last <= first +. (spec.limit_ms /. 2.0)

(* Tail latency (ms) of a phase, failures counted as [give_up_s]. *)
let capped_tail r =
  Float.min (1000.0 *. give_up_s) (fst (tail (Loadgen.all_latencies_ms r)))

(* The capacity: the highest passing rung, refined towards the next rung
   up by log-linear interpolation of the tail latency against the limit
   (a rung that failed outright contributes nothing).  0 when no rung
   passes. *)
let capacity spec rungs =
  let rec go best = function
    | [] -> best
    | (rate, true, t) :: rest ->
      let refined =
        match rest with
        | (r_up, false, t_up) :: _ when t_up > spec.limit_ms && t < spec.limit_ms ->
          let f = (spec.limit_ms -. t) /. (t_up -. t) in
          rate *. ((r_up /. rate) ** f)
        | _ -> rate
      in
      go (Float.max best refined) rest
    | _ :: rest -> go best rest
  in
  go 0.0 rungs

(* --- output checks --- *)

let hits_of = function Some (Protocol.Hits h) -> Some h.hits | _ -> None

(* A seeded sample of served read replies must equal the in-process
   answer of the same store bit for bit (ids and distances).  Checked
   after the phase, against the store as it then is. *)
let check_reads ~seed spec store (ph : phase) (r : Loadgen.result) =
  let rng = Prng.create (seed + 104729) in
  let n = Array.length ph.reqs in
  let reads = List.filter (fun i -> match ph.reqs.(i) with Protocol.Add _ -> false | _ -> true) (List.init n Fun.id) in
  let reads = Array.of_list reads in
  let m = Array.length reads in
  for _ = 1 to min spec.sample m do
    let i = reads.(Prng.int rng m) in
    let expect =
      match ph.reqs.(i) with
      | Protocol.Query { tau; tree } -> (Store.query ~tau store tree).hits
      | Protocol.Knn { k; tree } -> Store.nearest ~k store tree
      | _ -> assert false
    in
    match hits_of r.responses.(i) with
    | Some got ->
      (* Trees added while the workload ran may or may not have been
         visible to a read; the preloaded ones must match exactly. *)
      let old = List.filter (fun (id, _) -> id < spec.n) in
      check
        (old got = old expect && List.for_all (fun h -> List.mem h expect) got)
        "%s: reply %d differs from the in-process answer" spec.name (ph.id_base + i)
    | None -> ()
  done

(* Served ADD acknowledgements must name exactly the ids after the
   preload, each once. *)
let check_add_ids spec ~first acked =
  let ids = List.sort compare acked in
  check (ids = List.init (List.length ids) (fun i -> first + i)) "%s: ADD ids are not %d.. in order" spec.name first

let acked_ids (r : Loadgen.result) =
  Array.fold_left
    (fun acc x -> match x with Some (Protocol.Added { id; _ }) -> id :: acc | _ -> acc)
    [] r.responses

(* Drain, reopen the directory and require every acknowledged ADD and
   the live Merkle root. *)
let check_reopen spec env ~expect_trees ~root =
  stop env;
  (match Store.open_ ?dir:env.dir ~tau:spec.tau () with
  | Error e -> raise (Check_failed (spec.name ^ ": reopen failed: " ^ e))
  | Ok st ->
    check (Store.n_trees st = expect_trees) "%s: reopened store holds %d trees, expected %d" spec.name
      (Store.n_trees st) expect_trees;
    check (Store.merkle_root st = root) "%s: reopened Merkle root differs from the live one" spec.name;
    Store.close st);
  Option.iter remove_tree env.dir

(* --- untraced run --- *)

let nominal_ops spec ~seconds = max 20 (int_of_float (spec.nominal *. spec.nominal_share *. seconds))

let ladder_ops spec = List.length spec.ladder.rungs * spec.ladder.rung_ops

(* Fresh trees for ADD: enough for every request of the run to be one. *)
let fresh_needed spec ~seconds =
  if spec.add_share = 0.0 then 0 else nominal_ops spec ~seconds + ladder_ops spec

let run ~seed ~seconds ~setup_reps spec =
  let fresh = fresh_needed spec ~seconds in
  let (env, inputs), setup_s = setup ~seed ~reps:setup_reps spec ~fresh in
  let store = Server.store env.srv in
  let rng = Prng.create (seed + 1) in
  let n_nominal = nominal_ops spec ~seconds in
  let nominal = make_phase ~rng ~rate:spec.nominal spec inputs n_nominal in
  let fsyncs0 = Store.fsyncs store in
  phase_cpu := 0.0;
  let r0 = run_phase env nominal in
  let fsyncs_nominal = Store.fsyncs store - fsyncs0 in
  check_reads ~seed spec store nominal r0;
  let acked = ref (acked_ids r0) in
  let nominal_acks = List.length !acked in
  (* capacity ladder *)
  let rung k =
    let rng = Prng.create ((seed * 7919) + k) in
    let ph = make_phase ~rng ~rate:(rung_rate spec k) spec inputs spec.ladder.rung_ops in
    let r = run_phase env ph in
    acked := acked_ids r @ !acked;
    let ok = passes spec r in
    let t = capped_tail r in
    report "%s: rung %d (%.1f req/s, %d ops): %s, tail %.2f ms, %d failed" spec.name k (rung_rate spec k)
      spec.ladder.rung_ops (if ok then "pass" else "FAIL") t (Loadgen.failed r);
    (rung_rate spec k, ok, t)
  in
  let rungs = (spec.nominal, passes spec r0, capped_tail r0) :: List.map rung spec.ladder.rungs in
  let capacity = capacity spec rungs in
  (* Processor time per request over every request of the run, nominal
     phase and ladder alike: the operation count is fixed, so this is the
     same work on every commit. *)
  let n_ops = n_nominal + ladder_ops spec in
  let cpu_ms = 1000.0 *. !phase_cpu /. float_of_int n_ops in
  let merkle = Store.merkle_root store in
  let n_live = Store.n_trees store in
  check_add_ids spec ~first:spec.n !acked;
  check (n_live = spec.n + List.length !acked) "%s: live store holds %d trees after %d acked ADDs" spec.name n_live
    (List.length !acked);
  let stats = Server.stats env.srv in
  if spec.durable then check_reopen spec env ~expect_trees:n_live ~root:merkle
  else stop env;
  let lat kind = Loadgen.latencies_ms r0 kind in
  let p50 kind = let x = lat kind in if Array.length x = 0 then 0.0 else median x in
  let p99 kind =
    let x = lat kind in
    if Array.length x = 0 then 0.0 else Float.min (1000.0 *. give_up_s) (fst (tail x))
  in
  let failed = Loadgen.failed r0 in
  let attempted = Array.length r0.ops in
  let lag_p99 = 1000.0 *. fst (tail r0.lag_s) in
  report "%s: nominal %.0f req/s, %d requests (%d QUERY, %d KNN, %d ADD), lag p99 %.3f ms, STATS shed=%d errors=%d expired=%d degraded=%d"
    spec.name spec.nominal attempted (Array.length (lat Loadgen.Query)) (Array.length (lat Loadgen.Knn))
    (Array.length (lat Loadgen.Add)) lag_p99 stats.shed stats.errors stats.expired stats.degraded;
  ( [
      metric "setup_s" "s" setup_s;
      metric "cpu_ms_per_op" "ms" cpu_ms;
      metric "mem_mb" "MiB" (vm_hwm_mb ());
    ],
    [
      metric "query_p50_ms" "ms" (p50 Loadgen.Query);
      metric "query_p99_ms" "ms" (p99 Loadgen.Query);
      metric "knn_p50_ms" "ms" (p50 Loadgen.Knn);
      metric "knn_p99_ms" "ms" (p99 Loadgen.Knn);
      metric "add_p50_ms" "ms" (p50 Loadgen.Add);
      metric "add_p99_ms" "ms" (p99 Loadgen.Add);
      metric "capacity_rps" "req/s" capacity;
      metric "failed_ratio" "share" (ratio (float_of_int failed) (float_of_int attempted));
      metric "fsyncs_per_add" "ratio" (ratio (float_of_int fsyncs_nominal) (float_of_int nominal_acks));
      metric "loadgen.lag_p99_ms" "ms" lag_p99;
    ],
    attempted,
    failed,
    lag_p99 )

(* --- traced run --- *)

module Incremental = Tsj_core.Incremental

(* The serving path's candidate generation and verification recomposed
   from the public layers over a copy of the store's trees: the same
   size-band probe as [Incremental] ([size ± τ], see [Mirror]), then the
   τ-banded kernel on every candidate — the serving path runs no
   cascade. *)
type mirror = {
  index : Mirror.t;
  mutable trees : Tree.t array;
  mutable preps : Ted.prep option array;
  mutable count : int;
  dag : Dag.t;
  cons : Trace.acc;
  prep : Trace.acc;
  near : Trace.acc;
  far : Trace.acc;
  mutable candidates : int;
  mutable queries : int;
  mutable hits : int;
  mutable cells : float;
}

let mirror_create tau =
  let acc = Trace.acc in
  {
    index = Mirror.create ~tau; trees = [||]; preps = [||]; count = 0; dag = Dag.create ();
    cons = acc (); prep = acc (); near = acc (); far = acc (); candidates = 0; queries = 0; hits = 0;
    cells = 0.0;
  }

let mirror_prep m id =
  match m.preps.(id) with
  | Some p -> p
  | None ->
    let p = Trace.timed "ted.preprocess" m.prep (fun () -> Ted.preprocess m.trees.(id)) in
    m.preps.(id) <- Some p;
    p

(* Candidates of [tree] among the mirrored trees, by id. *)
let mirror_candidates m ~tau tree =
  let btree = Trace.span "binary_tree.of_tree" (fun () -> Binary_tree.of_tree tree) in
  let size = btree.Binary_tree.size in
  List.sort compare (Mirror.candidates m.index ~lo:(size - tau) ~hi:(size + tau) btree (Index.cursor btree))

(* Verify candidates with the banded kernel; returns [(id, d)] within τ. *)
let mirror_verify m ~tau tree cands =
  let qprep = Ted.preprocess tree in
  let qsize = Tree.size tree in
  List.filter_map
    (fun tj ->
      m.candidates <- m.candidates + 1;
      let p = mirror_prep m tj in
      let t0 = now () in
      let d = Trace.span "ted.kernel" (fun () -> Ted.bounded_distance_prep ~algorithm:Ted.Hybrid qprep p tau) in
      Trace.add (if d <= tau then m.near else m.far) (now () -. t0);
      m.cells <- m.cells +. float_of_int (qsize * Ted.size p);
      if d <= tau then Some (tj, d) else None)
    cands

let mirror_add m tree =
  if m.count = Array.length m.trees then begin
    let cap = max 64 (2 * m.count) in
    let trees = Array.make cap tree and preps = Array.make cap None in
    Array.blit m.trees 0 trees 0 m.count;
    Array.blit m.preps 0 preps 0 m.count;
    m.trees <- trees;
    m.preps <- preps
  end;
  let id = m.count in
  m.trees.(id) <- tree;
  m.count <- m.count + 1;
  ignore (Trace.timed "dag.cons" m.cons (fun () -> Ted.cons m.dag tree));
  Mirror.insert m.index ~id (Binary_tree.of_tree tree)

let by_distance = List.sort (fun (i1, d1) (i2, d2) -> compare (d1, i1) (d2, i2))

(* Bytes of every regular file under [dir]. *)
let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      match Unix.stat (Filename.concat dir f) with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc
      | exception Unix.Unix_error _ -> acc)
    0 (Sys.readdir dir)

let run_traced ~seed ~seconds spec =
  let fresh = fresh_needed spec ~seconds in
  let (env, inputs), _ = setup ~seed ~reps:1 spec ~fresh in
  let store = Server.store env.srv in
  let rng = Prng.create (seed + 1) in
  let n_phase = nominal_ops spec ~seconds / 2 in
  (* The same rate untraced, then traced: the difference is the tracing
     overhead. *)
  let ph_u = make_phase ~rng ~rate:spec.nominal spec inputs n_phase in
  let r_u = run_phase env ph_u in
  let stats0 = Server.stats env.srv and fsyncs0 = Store.fsyncs store in
  Trace.reset ();
  Trace.enabled := true;
  let ph = make_phase ~rng ~rate:spec.nominal spec inputs n_phase in
  let r = run_phase env ph in
  Trace.enabled := false;
  let stats1 = Server.stats env.srv and fsyncs = Store.fsyncs store - fsyncs0 in
  check_reads ~seed spec store ph r;
  let acked_u = acked_ids r_u and acked_t = acked_ids r in
  check_add_ids spec ~first:spec.n (acked_u @ acked_t);
  let n_live = Store.n_trees store in
  check (n_live = spec.n + List.length acked_u + List.length acked_t) "%s: live store lost ADDs" spec.name;
  let user_bytes = ref 0 in
  for id = 0 to n_live - 1 do
    user_bytes := !user_bytes + String.length (Tsj_tree.Bracket.to_string (Store.tree store id))
  done;
  let disk_bytes = match env.dir with Some d -> dir_bytes d | None -> 0 in
  let root = Store.merkle_root store in
  if spec.durable then check_reopen spec env ~expect_trees:n_live ~root else stop env;
  (* Replay the traced phase in process on an identically built store,
     Incremental index and mirror, in send order. *)
  let rdir = if spec.durable then Some "replay.store" else None in
  Option.iter remove_tree rdir;
  let rs = match Store.open_ ?dir:rdir ~tau:spec.tau () with Ok s -> s | Error e -> failwith e in
  let inc = Incremental.create ~tau:spec.tau () in
  let m = mirror_create spec.tau in
  preload rs inputs.stored;
  Array.iter (fun t -> ignore (Incremental.add inc t); mirror_add m t) inputs.stored;
  let replay_add tree =
    ignore (Store.add rs tree);
    ignore (Incremental.add inc tree);
    mirror_add m tree
  in
  Array.iteri
    (fun k req ->
      match (req, r_u.responses.(k)) with
      | Protocol.Add { tree; _ }, Some (Protocol.Added _) -> replay_add tree
      | _ -> ())
    ph_u.reqs;
  let acc = Trace.acc in
  let dec = acc () and enc = acc () and query = acc () and knn = acc () in
  let stage = acc () and journal = acc () and index = acc () in
  let i_query = acc () and i_knn = acc () and i_add = acc () in
  let reply_bytes = ref 0 in
  let service = Array.make (Array.length ph.reqs) nan in
  let memo0 = (Atomic.get Memo.hits, Atomic.get Memo.misses) in
  Trace.enabled := true;
  Array.iteri
    (fun k (op : Loadgen.op) ->
      let id = ph.id_base + k in
      let frame = op.frame in
      let served = r.responses.(k) in
      let resp =
        Trace.span ~req:id "replay.request" (fun () ->
            let req =
              Trace.timed "protocol.decode_request" dec (fun () ->
                  Protocol.Binary.decode_request ~version:Protocol.Binary.version ~op:(Char.code frame.[8])
                    ~body:(String.sub frame 9 (String.length frame - 9)))
            in
            let t0 = now () in
            let resp =
              match req with
              | Ok (Protocol.Query { tau; tree }, _, _) ->
                let res = Trace.timed "store.query" query (fun () -> Store.query ~tau rs tree) in
                Protocol.Hits { degraded = res.degraded; hits = res.hits; unverified = res.unverified }
              | Ok (Protocol.Knn { k; tree }, _, _) ->
                let hits = Trace.timed "store.nearest" knn (fun () -> Store.nearest ~k rs tree) in
                Protocol.Hits { degraded = false; hits; unverified = [] }
              | Ok (Protocol.Add { tree; _ }, _, _) -> (
                let staged = Trace.timed "store.stage" stage (fun () -> Store.stage_batch rs [| (None, tree) |]) in
                (match Trace.timed "store.journal" journal (fun () -> Store.journal_staged rs staged) with
                | Ok () -> ()
                | Error e -> failwith ("replay journal: " ^ e));
                match (Trace.timed "store.index" index (fun () -> Store.index_staged rs staged)).(0) with
                | Ok (id, partners) -> Protocol.Added { id; partners }
                | Error e -> Protocol.Err e)
              | _ -> Protocol.Err "replay: unexpected request"
            in
            service.(k) <- now () -. t0;
            let b = Buffer.create 256 in
            Trace.timed "protocol.encode_response" enc (fun () -> Protocol.Binary.encode_response b ~id resp);
            reply_bytes := !reply_bytes + Buffer.length b;
            resp)
      in
      (* The same request on the bare Incremental index and the mirror. *)
      match resp with
      | Protocol.Added { id = rid; partners } ->
        check (served = Some resp) "%s: replayed ADD %d differs from the served acknowledgement" spec.name id;
        let tree = match ph.reqs.(k) with Protocol.Add { tree; _ } -> tree | _ -> assert false in
        let p = Trace.timed "incremental.add" i_add (fun () -> Incremental.add inc tree) in
        let mine =
          Trace.span ~req:id "mirror.add" (fun () ->
              let cands = mirror_candidates m ~tau:spec.tau tree in
              List.sort compare (mirror_verify m ~tau:spec.tau tree cands))
        in
        check (p = partners && mine = partners) "%s: ADD %d partners differ between Store, Incremental and the mirror"
          spec.name rid;
        mirror_add m tree
      | Protocol.Hits { hits; _ } -> (
        match ph.reqs.(k) with
        | Protocol.Query { tau; tree } ->
          let ih = Trace.timed "incremental.query" i_query (fun () -> (Incremental.query ~tau inc tree).hits) in
          let mine =
            Trace.span ~req:id "mirror.query" (fun () ->
                m.queries <- m.queries + 1;
                let cands = mirror_candidates m ~tau tree in
                by_distance (mirror_verify m ~tau tree cands))
          in
          m.hits <- m.hits + List.length mine;
          check (ih = hits && mine = hits) "%s: QUERY %d answers differ between Store, Incremental and the mirror"
            spec.name id
        | Protocol.Knn { k; tree } ->
          let ih = Trace.timed "incremental.knn" i_knn (fun () -> Incremental.nearest ~k inc tree) in
          check (ih = hits) "%s: KNN %d answers differ between Store and Incremental" spec.name id
        | _ -> ())
      | _ -> raise (Check_failed (spec.name ^ ": replay failed")))
    ph.ops;
  Trace.enabled := false;
  let memo_hits = Atomic.get Memo.hits - fst memo0 and memo_misses = Atomic.get Memo.misses - snd memo0 in
  Store.close rs;
  Option.iter remove_tree rdir;
  (* Queue wait: client latency minus the replayed service time. *)
  let waits = ref [] in
  Array.iteri
    (fun k l -> if Float.is_finite l && Float.is_finite service.(k) then waits := (1000.0 *. (l -. service.(k))) :: !waits)
    r.latency_s;
  let waits = Array.of_list !waits in
  let n_req = Array.length ph.reqs in
  let n_acked = List.length acked_t in
  let p50_u = median (Loadgen.all_latencies_ms r_u) and p50_t = median (Loadgen.all_latencies_ms r) in
  let encode_req = match List.assoc_opt "protocol.encode_request" (Trace.self_times ()) with Some (_, t, _) -> t | None -> 0.0 in
  let decode_reply = match List.assoc_opt "protocol.decode_response" (Trace.self_times ()) with Some (_, t, _) -> t | None -> 0.0 in
  let fn = float_of_int in
  let lag = 1000.0 *. fst (tail r.lag_s) in
  report "%s traced: %d requests replayed; p50 %.3f ms untraced, %.3f ms traced; %d spans" spec.name n_req p50_u p50_t
    !Trace.count;
  let layers =
    [
      metric "loadgen.lag_p99_ms" "ms" lag;
      metric "protocol.encode_us" "us" (us (encode_req +. enc.s) n_req);
      metric "protocol.decode_us" "us" (us (decode_reply +. dec.s) n_req);
      metric "protocol.reply_bytes" "B" (ratio (fn !reply_bytes) (fn n_req));
      metric "server.queue_wait_p50_ms" "ms" (median waits);
      metric "server.queue_wait_p99_ms" "ms" (fst (tail waits));
      metric "server.shed" "count" (fn (stats1.shed - stats0.shed));
      metric "server.errors" "count" (fn (stats1.errors - stats0.errors));
      metric "server.expired" "count" (fn (stats1.expired - stats0.expired));
      metric "server.degraded" "count" (fn (stats1.degraded - stats0.degraded));
      metric "store.fsyncs_per_add" "ratio" (ratio (fn fsyncs) (fn n_acked));
      metric "store.stage_us" "us" (Trace.mean_us stage);
      metric "store.journal_us" "us" (Trace.mean_us journal);
      metric "store.index_us" "us" (Trace.mean_us index);
      metric "store.bytes_per_user_byte" "ratio" (ratio (fn disk_bytes) (fn !user_bytes));
      metric "incremental.query_us" "us" (Trace.mean_us i_query);
      metric "incremental.knn_us" "us" (Trace.mean_us i_knn);
      metric "incremental.add_us" "us" (Trace.mean_us i_add);
      metric "incremental.cand_per_query" "count" (ratio (fn m.candidates) (fn (m.queries + i_add.n)));
      metric "incremental.hit_ratio" "ratio" (ratio (fn m.hits) (fn m.candidates));
      metric "ted.calls" "count" (fn (m.near.n + m.far.n));
      metric "ted.preprocess_us_per_tree" "us" (Trace.mean_us m.prep);
      metric "ted.us_per_call.near" "us" (Trace.mean_us m.near);
      metric "ted.us_per_call.far" "us" (Trace.mean_us m.far);
      metric "ted.ns_per_cell_est" "ns" (1e9 *. ratio (m.near.s +. m.far.s) m.cells);
      metric "dag.sharing" "ratio" (Dag.sharing m.dag);
      metric "dag.cons_us_per_tree" "us" (Trace.mean_us m.cons);
      metric "memo.hit_ratio" "ratio" (ratio (fn memo_hits) (fn (memo_hits + memo_misses)));
      metric "trace.overhead_pct" "%" (100.0 *. ratio (p50_t -. p50_u) p50_u);
    ]
    @ Mirror.metrics m.index
  in
  let attempted = Array.length r_u.ops + n_req in
  (layers, attempted, Loadgen.failed r_u + Loadgen.failed r, lag)
