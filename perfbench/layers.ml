(* The fixed list of per-layer metrics every traced run reports.  A
   workload that bypasses a layer reports 0 for it. *)

let names =
  [
    ("loadgen.lag_p99_ms", "ms");
    ("protocol.encode_us", "us");
    ("protocol.decode_us", "us");
    ("protocol.reply_bytes", "B");
    ("server.queue_wait_p50_ms", "ms");
    ("server.queue_wait_p99_ms", "ms");
    ("server.shed", "count");
    ("server.errors", "count");
    ("server.expired", "count");
    ("server.degraded", "count");
    ("store.fsyncs_per_add", "ratio");
    ("store.stage_us", "us");
    ("store.journal_us", "us");
    ("store.index_us", "us");
    ("store.bytes_per_user_byte", "ratio");
    ("incremental.query_us", "us");
    ("incremental.knn_us", "us");
    ("incremental.add_us", "us");
    ("incremental.cand_per_query", "count");
    ("incremental.hit_ratio", "ratio");
    ("partsj.prep_s", "s");
    ("partsj.sweep_s", "s");
    ("partsj.candidate_s", "s");
    ("partsj.verify_s", "s");
    ("partsj.candidates", "count");
    ("partsj.precision", "ratio");
    ("partition.us_per_tree", "us");
    ("partition.subgraphs", "count");
    ("index.probe_us_per_tree", "us");
    ("index.probed", "count");
    ("index.matched", "count");
    ("index.match_ratio", "ratio");
    ("cascade.compile_us_per_tree", "us");
    ("cascade.us_per_candidate", "us");
    ("cascade.pruned", "count");
    ("cascade.early_accepted", "count");
    ("cascade.kernel_verified", "count");
    ("cascade.decided_share", "ratio");
    ("ted.calls", "count");
    ("ted.preprocess_us_per_tree", "us");
    ("ted.us_per_call.near", "us");
    ("ted.us_per_call.far", "us");
    ("ted.ns_per_cell_est", "ns");
    ("dag.sharing", "ratio");
    ("dag.cons_us_per_tree", "us");
    ("memo.hit_ratio", "ratio");
    ("trace.overhead_pct", "%");
    ("trace.spans", "count");
  ]

(* Spans whose self time is reported, as [self_ms.<span>]. *)
let spans =
  [
    "join.recompose"; "join.prep"; "join.tree"; "dag.cons"; "ted.preprocess"; "bounds.compile";
    "binary_tree.of_tree"; "index.cursor"; "index.probe"; "subgraph.matches"; "cascade"; "ted.kernel"; "partition";
    "subgraph.of_partition"; "index.insert"; "loadgen.request"; "protocol.encode_request";
    "protocol.decode_response"; "replay.request"; "protocol.decode_request"; "protocol.encode_response";
    "store.query"; "store.nearest"; "store.stage"; "store.journal"; "store.index"; "incremental.query";
    "incremental.knn"; "incremental.add"; "mirror.query"; "mirror.add";
  ]

(* The metrics of [ms] in the fixed order, zero-filled, followed by the
   self time of every listed span in the current trace. *)
let complete ms =
  List.iter
    (fun m ->
      if not (List.mem_assoc m.Common.name names) then invalid_arg ("Layers.complete: unlisted metric " ^ m.name))
    ms;
  let selfs = Trace.self_times () in
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.Common.name = name) ms with
      | Some m -> m
      | None when name = "trace.spans" -> Common.metric name unit_ (float_of_int !Trace.count)
      | None -> Common.metric name unit_ 0.0)
    names
  @ List.map
      (fun s ->
        let self = match List.assoc_opt s selfs with Some (_, _, self) -> self | None -> 0.0 in
        Common.metric ("self_ms." ^ s) "ms" (1000.0 *. self))
      spans
