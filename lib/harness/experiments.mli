(** Runners that regenerate every table and figure of the paper's
    evaluation (Section 4), printing the same rows/series in plain-text
    tables.  See DESIGN.md for the per-experiment index and EXPERIMENTS.md
    for recorded paper-vs-measured outcomes.

    Cardinalities default to laptop-scale stand-ins for the paper's
    corpora (the paper runs up to 100K trees on C++ for hours); the
    [scale] knob multiplies them.  All runs are deterministic in
    [seed]. *)

type config = {
  scale : float;       (** multiplies every dataset cardinality *)
  seed : int;
  taus : int list;     (** thresholds for the τ sweeps (paper: 1..5) *)
  out : out_channel;
  domains : int;       (** domain count forwarded to the PartSJ runs *)
  bench_json : string; (** output path of {!perf}'s machine-readable record *)
}

val default_config : config
(** [scale = 1.0], [seed = 42], [taus = 1..5], stdout, [domains = 1],
    [bench_json = "BENCH_partsj.json"]. *)

val fig10_11 : config -> unit
(** Figures 10 and 11: runtime split (candidate generation vs TED) and
    candidate counts (STR / SET / PRT / REL) vs τ, on all four datasets. *)

val fig12_13 : config -> unit
(** Figures 12 and 13: the same two metrics vs dataset cardinality at
    τ = 3. *)

val fig14 : config -> unit
(** Table 1 + Figure 14: sensitivity to maximum fanout, maximum depth,
    number of labels and average tree size on the synthetic generator,
    τ = 3. *)

val ablation : config -> unit
(** Section 4.3's closing experiment (balanced vs random partitioning)
    plus our index ablations: the paper's rank windows (with missed
    results counted against ground truth) and the label-only index. *)

val parallel : config -> unit
(** Extension bench: the whole PartSJ join (preprocessing, block-parallel
    candidate generation and pipelined verification) on 1, 2, 4 and the
    recommended number of OCaml domains. *)

val perf : config -> unit
(** End-to-end phase benchmark on the fig10-style synthetic dataset at
    τ = 3: runs the join at one domain and at the recommended count,
    prints the wall-time phase split, asserts that result pairs,
    candidate counts and probe statistics are identical across domain
    counts, and writes the machine-readable record to
    [config.bench_json].
    @raise Failure if the two runs disagree. *)

val dag : config -> unit
(** DAG-compression benchmark on the subtree-repetition-heavy
    [redundant] profile at τ = 3: measures the resident-set reduction of
    hash-consing the collection (deep-copied baseline vs interned shared
    views), runs the PartSJ join at 1 and [config.domains] domains,
    reports the verify time and the whole-pair result-cache hit rate,
    and writes [BENCH_dag.json].
    @raise Failure if the output differs across domain counts, the
    result cache never hits, or (at
    [scale >= 1.0]) interning saves less than 2x memory. *)

val streaming : config -> unit
(** Extension bench: cumulative throughput of the incremental
    (streaming) join as the history grows. *)

val resilience : config -> unit
(** Extension bench: the resilient-execution scenarios.  Runs a
    kill-and-resume (injected crash between blocks, checkpoint journal
    every block) at one domain and at the configured parallel count,
    asserting the resumed output bit-identical to an uninterrupted run;
    then a tiny per-pair budget, asserting no false positives and
    completeness up to the quarantined set.
    @raise Failure on any violation. *)

val serving : config -> unit
(** Extension bench: the fault-tolerant similarity-search service.
    Runs an in-process [tsj serve] instance over a temp Unix socket in
    three phases: a lock-step newline-protocol burst (the "before"
    measurement), a pipelined binary-protocol mixed read/write phase in
    a dedicated load-generator domain (the headline throughput and
    latency percentiles), and a pure ADD burst measuring the group-commit
    amortization (fsyncs per acked ADD).  Asserts every request is
    answered; then drains over the wire and asserts the cold start sees
    the full index with an empty journal; then runs a kill-and-restart
    crash scenario asserting bit-identical answers.  Writes
    [BENCH_serving.json] with both the before (text) and after (binary)
    numbers.
    @raise Failure on any violation. *)

val serving_soak : config -> unit
(** Extension bench: sustained serving load.  One server, four rungs of
    fixed connection counts (1, 2, 4, 8), each holding a pipelined mixed
    read/write workload (1/128 ADDs) for 15 s — 60 s of load at full
    scale ([scale] shrinks the rungs for smoke runs).  Prints
    throughput, p50/p99 and fsyncs-per-ADD per rung and writes
    [BENCH_serving_soak.json].  Not part of {!run_all} (it is a
    minute-long bench by design); run it via [tsj bench serving-soak].
    @raise Failure on any violation. *)

val overload : config -> unit
(** Extension bench: overload robustness.  Runs {!Tsj_harness.Faults}'
    overload storm at widening greedy-client counts (1, 2, 5, 10 —
    a single rung below [scale = 0.1]): one token-bucket-limited server,
    a conforming paced client measured before and inside each storm,
    greedy pipelined clients firing 50 ms-deadline queries flat out, an
    idle connection awaiting the reaper and a hedge-race pair.  Prints
    baseline-vs-storm goodput, shed/expired/reaped counts per rung and
    writes [BENCH_overload.json].
    @raise Failure if goodput drops below half of baseline, the
    conforming client starves or is shed, any answer is late, wrong or
    hedge-divergent, or an expired ADD reaches the store. *)

val replication : config -> unit
(** Extension bench: the replicated service.  Starts a
    primary-plus-two-replica cluster over temp Unix sockets (quorum 2,
    journal streaming), drives quorum-acked ADDs through the failover
    client, then [abort]s the primary (kill -9 semantics), promotes a
    replica over the wire and measures the failover latency (abort to
    first acknowledged ADD) and post-failover throughput; asserts both
    survivors answer bit-identically to a single-node store that never
    failed.  Finishes with the in-process
    {!Faults.run_failover_storm} (randomized kills and partitions),
    asserting zero acknowledged ADDs lost and one writer per epoch.
    Writes [BENCH_replication.json].
    @raise Failure on any violation. *)

val sharding : config -> unit
(** Extension bench: the sharded service.  Starts 8 single-node shard
    servers over temp Unix sockets and a real {!Tsj_server.Router} with
    a checksummed ledger, loads the dataset through the router (dense
    gids), and measures: band-window fan-out (average shards touched
    per query — at most 2 with the default band width), the scanned
    fraction versus one unsharded store (the sub-linear per-shard query
    cost), and wire-level query latency, asserting every QUERY/KNN
    answer bit-identical to an unsharded reference.  Then migrates the
    fullest shard to a fresh node by journal streaming and re-checks
    bit-identity; kills another shard outright and checks every
    degraded answer is sound (no hit lost outside its [lo, hi] sandwich,
    none invented); finishes with the in-process
    {!Faults.run_sharded_storm} (randomized kills, partitions,
    sabotaged migrations and router crashes).  Writes
    [BENCH_sharding.json].
    @raise Failure on any violation. *)

val integrity : config -> unit
(** Extension bench: end-to-end integrity.  Measures the background
    scrubber's cost under load — the soak workload (pipelined binary
    queries over 4 connections) against the same preloaded server with
    the scrubber off and then re-verifying the journal on 10 ms ticks,
    asserting (at [scale >= 1.0]) the throughput overhead stays below
    5%% — and the wall time of one full offline scrub pass (every
    record, the epoch header, both seals).  Finishes with the
    in-process {!Faults.run_scrub_storm} (random bit flips in live
    journal/snapshot/seal files, mid-journal rot before restarts,
    grafted divergent histories, injected read faults), asserting every
    injected corruption detected, zero wrong answers, convergence after
    repair, and that Merkle anti-entropy transferred exactly the
    differing ranges (≪ full re-sync cost).  Writes
    [BENCH_integrity.json].
    @raise Failure on any violation. *)

val run_all : config -> unit
(** Everything above, in paper order, extensions last. *)
