"""One run of one benchmark workload; started by ``run.py``.

Usage (from the repository root):
    python3 rlcbench/worker.py --workload index-query --seed 1 --seconds 4 --trace 0

Prints progress on standard error, then the failure share and one JSON line
``{"correct", "attempted", "failed", "metrics"}`` on standard output, and
writes the same result with an environment record to ``.bench_build/rlcbench/``.
The program under test is reached only through public calls.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "rlcbench"
sys.path.insert(0, str(ROOT / "src"))

from probes import (  # noqa: E402
    SPARK_FIELDS,
    CallStats,
    SparkCounters,
    median,
    p99,
    peak_rss_mb,
    perf,
    reset_peak_rss,
    wall_span,
    wrapped,
)


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload: a scaled Table III analog, which keeps the
    analog's own graph seed, and ``k``. Each run draws ``n_per_class`` true
    and as many false queries per constraint length ``1..k``, and ``n_q4``
    of each for ``a+.b+``, from its ``--seed``."""

    analog: str
    scale: float
    k: int
    n_per_class: int
    n_q4: int


# The graphs do not vary with --seed: between seeded graphs of these sizes,
# build time, index size and lookup latency differed by 20-40%, far beyond
# any bound a regression check could use. The seed varies the query sets.
WORKLOADS = {
    "index-query": Workload("WN", 0.04, 3, 150, 400),
    "dataflow-build": Workload("AD", 0.034, 2, 150, 150),
}

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Seconds of lookup passes on workloads whose timed phase is a build.
SIDE_LOOKUP_SECONDS = 2.0
#: Least lookups and Q4 queries in one lookup-loop window, and least
#: windows in one loop.
WINDOW_SAMPLES = 1000
MIN_WINDOWS = 4
#: Least seconds of the BiBFS reference on each side of a sequential build.
REFERENCE_S = 0.5
#: Job pairs in the Spark reference that ``build_relative`` divides by.
REFERENCE_JOBS = 8
#: Q2 queries each control engine answers in a traced run.
CONTROL_QUERIES = 40

_T0 = perf()


def log(msg: str) -> None:
    """Progress line on standard error, stamped with seconds since start."""
    print(f"[rlcbench {perf() - _T0:7.2f}s] {msg}", file=sys.stderr, flush=True)


@dataclass
class Instance:
    """The workload's graph, its adjacency, queries with ground truth, and
    the sequential index the lookups run on."""

    out_adj: dict
    in_adj: dict
    graph: object = None
    index: object = None
    queries: list = field(default_factory=list)  # (s, t, L, truth)
    q4: list = field(default_factory=list)  # (s, t, a, b, truth)


@dataclass
class Run:
    """Shared state of one run: Spark session, tallies and raw figures."""

    spark: object
    workload: Workload
    seed: int
    seconds: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    times: dict = field(default_factory=lambda: defaultdict(list))
    values: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)

    def stop_spark(self) -> None:
        """Stop Spark and wait for its JVM to exit; idempotent."""
        from pyspark import SparkContext

        if self.spark is None:
            return
        self.spark.stop()
        gateway = SparkContext._gateway
        if gateway is not None:
            gateway.shutdown()
            gateway.proc.stdin.close()  # the JVM exits at end of input
            gateway.proc.wait(timeout=60)
            SparkContext._gateway = SparkContext._jvm = None
        self.spark = None

    def check(self, answer, truth) -> None:
        self.attempted += 1
        self.failed += answer != truth

    def failure(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAILED {what}", file=sys.stderr)
        traceback.print_exc()


# -- set-up -------------------------------------------------------------------

def gen_q4(out_adj, in_adj, n_true, n_false, seed):
    """``a+.b+`` queries with ground truth from an NFA-guided BFS."""
    from repro.baselines.online import Nfa, nfa_bfs

    rng = random.Random(seed)
    vertices = sorted(out_adj.keys() | in_adj.keys())
    labels = sorted({lbl for nbrs in out_adj.values() for lbl, _ in nbrs})
    trues, falses = [], []
    for _ in range(400 * (n_true + n_false)):
        if len(trues) >= n_true and len(falses) >= n_false:
            break
        s, t = rng.choice(vertices), rng.choice(vertices)
        a, b = rng.sample(labels, 2)
        truth = nfa_bfs(out_adj, s, t, Nfa.concat_plus(a, b))
        bucket = trues if truth else falses
        if len(bucket) < (n_true if truth else n_false):
            bucket.append((s, t, a, b, truth))
    return trues + falses


def analog(wl: Workload):
    from repro.graphs.generators import ANALOGS

    return ANALOGS[wl.analog].scaled(wl.scale)


def generate_graph(run: Run, keep_graph: bool) -> Instance:
    """Generate the workload's graph and its adjacency, timing both."""
    t0 = perf()
    graph = analog(run.workload).build(run.spark)
    t1 = perf()
    out_adj, in_adj = graph.to_adjacency()
    t2 = perf()
    run.times["graph.generate_s"].append(t1 - t0)
    run.times["graph.to_adjacency_s"].append(t2 - t1)
    if not keep_graph:
        graph.unpersist()
        graph = None
    return Instance(out_adj, in_adj, graph)


def prepare(run: Run, inst: Instance, build_index: bool) -> float:
    """Draw the queries, and when ``build_index`` build the index, timing
    BiBFS over the same queries before and after it as the build's
    reference. Return the time that counts as set-up: query generation and
    build for ``build_index``, else nothing."""
    from repro.core.querygen import generate_query_sets
    from repro.core.sequential import SequentialRlcIndex

    wl = run.workload
    t = perf()
    labels = sorted({lbl for nbrs in inst.out_adj.values() for lbl, _ in nbrs})
    inst.queries = []
    for length in range(1, wl.k + 1):
        trues, falses = generate_query_sets(
            inst.out_adj, inst.in_adj, labels, n_true=wl.n_per_class, n_false=wl.n_per_class,
            mr_len=length, seed=run.seed,
        )
        inst.queries += [(s, d, L, True) for s, d, L in trues]
        inst.queries += [(s, d, L, False) for s, d, L in falses]
    querygen_s = perf() - t
    run.times["querygen.generate_s"].append(querygen_s)
    inst.q4 = gen_q4(inst.out_adj, inst.in_adj, wl.n_q4, wl.n_q4, run.seed)
    if not build_index:
        return 0.0
    spent = perf() - t
    before = bibfs_reference(inst)
    t = perf()
    inst.index = SequentialRlcIndex(inst.out_adj, inst.in_adj, wl.k)
    build_s = perf() - t
    reference = (before + bibfs_reference(inst)) / 2
    run.times["build_s"].append(build_s)
    run.times["build_relative"].append(build_s / reference)
    return spent + build_s


def bibfs_reference(inst: Instance) -> float:
    """Seconds per BiBFS pass over the query mix, over passes filling at
    least :data:`REFERENCE_S`: the reference ``build_relative`` divides by
    on the sequential builder."""
    from repro.baselines.online import bibfs

    passes = 0
    t0 = perf()
    while passes == 0 or perf() - t0 < REFERENCE_S:
        for s, d, L, _ in inst.queries:
            bibfs(inst.out_adj, inst.in_adj, s, d, L)
        passes += 1
    return (perf() - t0) / passes


def set_up(run: Run, keep_graph=False, build_index=False) -> Instance:
    """Set up :data:`SETUP_REPEATS` times and keep the last instance.

    The graphs are generated first. Unless the workload needs Spark later
    (``keep_graph``), Spark and its JVM are then stopped, so their
    background threads cannot slow the builds and lookups that follow."""
    inst = None
    for _ in range(SETUP_REPEATS):
        if inst is not None and inst.graph is not None:
            inst.graph.unpersist()
        inst = generate_graph(run, keep_graph)
    if not keep_graph:
        run.stop_spark()
    gen = [g + a for g, a in zip(run.times["graph.generate_s"], run.times["graph.to_adjacency_s"])]
    rest = [prepare(run, inst, build_index) for _ in range(SETUP_REPEATS if build_index else 1)]
    run.times["setup_s"] = [g + r for g, r in zip(gen, rest * SETUP_REPEATS)]
    log(f"set up {SETUP_REPEATS} times")
    return inst


# -- lookups ------------------------------------------------------------------

def _window_figures(w: dict) -> dict:
    lat, q4_lat = w["lat"], w["q4_lat"]
    every = [x for xs in lat.values() for x in xs]
    f = {
        "lookup_speedup_vs_bibfs": w["bibfs_wall"] / w["lookup_wall"],
        "q4_speedup_vs_sys2": w["sys2_wall"] / w["q4_wall"],
        "lookup_qps": len(every) / w["lookup_wall"],
        "lookup_true_p50_us": median([x for (_, tr), xs in lat.items() if tr for x in xs]) * 1e6,
        "lookup_false_p50_us": median([x for (_, tr), xs in lat.items() if not tr for x in xs]) * 1e6,
        "lookup_p99_us": p99(every) * 1e6,
        "q4_qps": len(q4_lat) / w["q4_wall"],
        "q4_p99_us": p99(q4_lat) * 1e6,
    }
    for q in (1, 2, 3):
        for truth in (True, False):
            xs = lat.get((q, truth))
            f[f"sequential.query_p50_us.Q{q}.{str(truth).lower()}"] = median(xs) * 1e6 if xs else 0.0
    return f


def lookup_loop(run: Run, inst: Instance, seconds: float) -> None:
    """Closed loop, one client: passes over the fixed query mix until
    ``seconds`` have passed. A pass answers the Q1..Qk lookups with the
    index and then again with BiBFS, and the ``a+.b+`` queries with
    ``rlc_eval`` and then with the Sys2 traversal engine.

    This host's speed swings by up to 2x for seconds to minutes at a time
    with its neighbours' load. A speed-up divides the baseline's time by the
    index's time over the same queries, both taken within the same pass, so
    it repeats between runs where the absolute figures do not.

    Passes are grouped into windows of at least :data:`WINDOW_SAMPLES`
    lookups and as many Q4 queries; each figure is the median over
    windows."""
    from repro.baselines.engines import PythonTraversalEngine, rlc_eval
    from repro.baselines.online import bibfs

    query = inst.index.query
    sys2 = PythonTraversalEngine(inst.out_adj)
    windows = []
    end = perf() + seconds
    while len(windows) < MIN_WINDOWS or perf() < end:
        w = {"lat": defaultdict(list), "q4_lat": [],
             "lookup_wall": 0.0, "bibfs_wall": 0.0, "q4_wall": 0.0, "sys2_wall": 0.0}
        lat, q4_lat = w["lat"], w["q4_lat"]
        while len(q4_lat) < WINDOW_SAMPLES or sum(map(len, lat.values())) < WINDOW_SAMPLES:
            t_pass = perf()
            for s, t, L, truth in inst.queries:
                t0 = perf()
                try:
                    answer = query(s, t, L)
                except Exception:
                    run.failure(f"query {(s, t, L)}")
                    continue
                lat[(len(L), truth)].append(perf() - t0)
                run.check(answer, truth)
            t_bibfs = perf()
            for s, t, L, _ in inst.queries:
                bibfs(inst.out_adj, inst.in_adj, s, t, L)
            t_q4 = perf()
            for s, t, a, b, truth in inst.q4:
                t0 = perf()
                try:
                    answer = rlc_eval(inst.index, inst.out_adj, s, t, ("concat_plus", a, b))
                except Exception:
                    run.failure(f"q4 {(s, t, a, b)}")
                    continue
                q4_lat.append(perf() - t0)
                run.check(answer, truth)
            t_sys2 = perf()
            for s, t, a, b, _ in inst.q4:
                sys2.evaluate(s, t, ("concat_plus", a, b))
            t_end = perf()
            w["lookup_wall"] += t_bibfs - t_pass
            w["bibfs_wall"] += t_q4 - t_bibfs
            w["q4_wall"] += t_sys2 - t_q4
            w["sys2_wall"] += t_end - t_sys2
        windows.append(_window_figures(w))
    for name in windows[0]:
        run.values[name] = median([w[name] for w in windows])
    run.samples["lookup_windows"] = windows
    log(f"lookup loop: {len(windows)} windows")


# -- traced passes --------------------------------------------------------------

def traced_sequential_build(run: Run, inst: Instance, untraced_build_s: float | None):
    """Rebuild the sequential index once with PR1 probes, MR and primitivity
    checks wrapped at the names the builder looks up."""
    import repro.core.sequential as seq

    probes, mrs, prims = CallStats(), CallStats(), CallStats()
    with wrapped(seq.SequentialRlcIndex, "query", probes), wrapped(seq, "mr", mrs), \
            wrapped(seq, "is_primitive", prims):
        t0 = perf()
        seq.SequentialRlcIndex(inst.out_adj, inst.in_adj, run.workload.k)
        wall = perf() - t0
    v = run.values
    v["sequential.pr1_probes"] = probes.calls
    v["sequential.pr1_s"] = probes.seconds
    v["sequential.pr1_prune_ratio"] = probes.trues / probes.calls if probes.calls else 0.0
    v["sequential.build_self_s"] = wall - probes.seconds - mrs.seconds
    v["labels.mr_calls"] = mrs.calls
    v["labels.mr_s"] = mrs.seconds
    v["labels.is_primitive_calls"] = prims.calls
    if untraced_build_s is not None:
        v["trace.overhead_s"] = wall - untraced_build_s


def traced_q4_pass(run: Run, inst: Instance) -> None:
    """One pass over the ``a+.b+`` queries counting index probes."""
    import repro.core.sequential as seq
    from repro.baselines.engines import rlc_eval

    probes = CallStats()
    with wrapped(seq.SequentialRlcIndex, "query", probes):
        for s, t, a, b, _ in inst.q4:
            rlc_eval(inst.index, inst.out_adj, s, t, ("concat_plus", a, b))
    run.values["engines.q4_probes_per_query"] = probes.calls / len(inst.q4)


def controls(run: Run, inst: Instance) -> None:
    """Per-query p50 of the online baselines on Q2 queries; these never use
    the index, so they expose machine drift between two runs."""
    import pandas as pd

    from repro.baselines.engines import DuckDbEngine, PythonTraversalEngine
    from repro.baselines.online import bibfs

    cases = [q for q in inst.queries if len(q[2]) == 2][:CONTROL_QUERIES]
    edges = [(u, lbl, w) for u, nbrs in inst.out_adj.items() for lbl, w in nbrs]
    sys2 = PythonTraversalEngine(inst.out_adj)
    duck = DuckDbEngine(pd.DataFrame(edges, columns=["src", "label", "dst"]))
    lat = defaultdict(list)
    try:
        for s, t, L, truth in cases:
            for name, fn in (
                ("engines.sys2_q2_p50_us", lambda: sys2.evaluate(s, t, ("plus", L))),
                ("engines.duckdb_q2_p50_us", lambda: duck.evaluate(s, t, ("plus", L))),
                ("online.bibfs_q2_p50_us", lambda: bibfs(inst.out_adj, inst.in_adj, s, t, L)),
            ):
                t0 = perf()
                answer = fn()
                lat[name].append(perf() - t0)
                run.check(answer, truth)
    finally:
        duck.close()
    for name, xs in lat.items():
        run.values[name] = median(xs) * 1e6


def traced_sequential(run: Run, inst: Instance, untraced_build_s: float | None) -> None:
    """The traced pass of a workload without Spark."""
    traced_sequential_build(run, inst, untraced_build_s)
    traced_q4_pass(run, inst)
    controls(run, inst)


# -- workloads ----------------------------------------------------------------

def index_query(run: Run) -> None:
    """The index is built during set-up; the timed phase is the lookup loop."""
    inst = set_up(run, build_index=True)
    v = run.values
    v["build_s"] = median(run.times["build_s"])
    v["build_relative"] = median(run.times["build_relative"])
    v["index_entries"] = inst.index.entry_count()
    v["index_bytes"] = inst.index.size_bytes()
    for s, t, L, _ in inst.queries:  # warm-up
        inst.index.query(s, t, L)
    lookup_loop(run, inst, run.seconds)
    v["peak_rss_mb"] = peak_rss_mb()
    if run.trace:
        traced_sequential(run, inst, v["build_s"])


def dataflow_pass(run: Run, graph, qdf, reference: dict, counters: SparkCounters | None,
                  with_etc: bool):
    """Build, then batch-query, then (``with_etc``) ETC; answers are checked
    against the sequential reference. Returns the built index, or None on
    failure, and the calls' spans."""
    from repro.core.closure import Budget, EtcIndex, concise_closure
    from repro.core.index_builder import build_rlc_index

    k = run.workload.k
    measure = counters.measure if counters else wall_span
    spans = defaultdict(dict)
    try:
        with measure(spans["index_builder.build_rlc_index"]):
            index = build_rlc_index(graph, k, budget=Budget(max_seconds=120, max_iterations=10_000))
        run.attempted += 1
        entries, size = index.entry_count(), index.size_bytes()
        with measure(spans["index.query_batch"]):
            rows = index.query_batch(qdf).collect()
        for r in rows:
            run.check(r.answer, reference[r.qid])
        spans["index_builder.build_rlc_index"].update(entries=entries, bytes=size)
        if with_etc:
            with measure(spans["closure.concise_closure"]):
                etc = EtcIndex(concise_closure(graph, k, budget=Budget(max_rows=2_000_000)), k)
            run.attempted += 1
            for r in etc.query_batch(qdf).collect():
                run.check(r.answer, reference[r.qid])
            spans["closure.concise_closure"]["entries"] = etc.entry_count()
            etc.df.unpersist()
    except Exception:  # budget overruns included
        run.failure("dataflow pass")
        return None, spans
    return index, spans


def spark_reference(spark) -> float:
    """Wall time of :data:`REFERENCE_JOBS` fixed small shuffle jobs, each
    checkpointed and counted like a builder step: a gauge of how fast this
    host runs Spark jobs at the moment. It uses no code of the program."""
    from pyspark.sql import functions as F

    t0 = perf()
    for _ in range(REFERENCE_JOBS):
        df = spark.range(0, 2000, numPartitions=4).groupBy((F.col("id") % 7).alias("k")).count()
        df.localCheckpoint().count()
    return perf() - t0


def dataflow_build(run: Run) -> None:
    """Dataflow builder and batch queries on one small AD graph; the traced
    run adds ETC and Spark counters."""
    import repro.core.closure as closure
    import repro.core.index_builder as index_builder
    from repro.core.querygen import queries_to_df
    from repro.core.sequential import SequentialRlcIndex

    k = run.workload.k
    inst = set_up(run, keep_graph=True)
    reference_index = SequentialRlcIndex(inst.out_adj, inst.in_adj, k)
    for s, t, L, truth in inst.queries:
        run.check(reference_index.query(s, t, L), truth)
    qdf = queries_to_df(run.spark, [(s, t, L) for s, t, L, _ in inst.queries]).localCheckpoint()
    reference = {i: truth for i, (_, _, _, truth) in enumerate(inst.queries)}
    spark_reference(run.spark)  # warm-up of Spark's job path

    passes = []
    deadline = perf() + run.seconds
    while not passes or perf() < deadline:
        before = spark_reference(run.spark)
        index, spans = dataflow_pass(run, inst.graph, qdf, reference, None, False)
        if index is None:
            raise RuntimeError("dataflow pass failed")
        spans["spark_reference_s"] = (before + spark_reference(run.spark)) / 2
        passes.append(spans)
        inst.index = index
        log(f"dataflow pass: {dict(spans)}")
    v = run.values
    v["build_s"] = median([p["index_builder.build_rlc_index"]["wall_s"] for p in passes])
    v["spark_reference_s"] = median([p["spark_reference_s"] for p in passes])
    v["build_relative"] = median([
        p["index_builder.build_rlc_index"]["wall_s"] / p["spark_reference_s"] for p in passes
    ])
    v["index_entries"] = passes[0]["index_builder.build_rlc_index"]["entries"]
    v["index_bytes"] = passes[0]["index_builder.build_rlc_index"]["bytes"]
    run.samples["dataflow_passes"] = passes
    driver_index = inst.index.to_driver()
    if run.trace:
        counters = SparkCounters(run.spark)
        hops = {}
        with counters.measure(hops):
            hops["rows"] = closure.mr_hops(inst.graph, k).localCheckpoint().count()
        calls = CallStats()
        with wrapped(index_builder, "mr_hops", calls), wrapped(closure, "mr_hops", calls):
            index, spans = dataflow_pass(run, inst.graph, qdf, reference, counters, True)
        if index is None:
            raise RuntimeError("traced dataflow pass failed")
        spans["closure.mr_hops"] = hops
        for call, fields in spans.items():
            for f in SPARK_FIELDS:
                v[f"{call}.{f}"] = fields[f]
        v["closure.mr_hops.rows"] = hops["rows"]
        v["closure.mr_hops.calls"] = calls.calls
        v["closure.concise_closure.entries"] = spans["closure.concise_closure"]["entries"]
        v["index_builder.batches"] = len(index_builder.batch_schedule(len(inst.out_adj)))
        v["trace.overhead_s"] = spans["index_builder.build_rlc_index"]["wall_s"] - v["build_s"]
    run.stop_spark()  # the lookups below run without the JVM's background threads
    inst.index = driver_index
    lookup_loop(run, inst, SIDE_LOOKUP_SECONDS)
    v["peak_rss_mb"] = peak_rss_mb()
    if run.trace:
        traced_q4_pass(run, inst)
        controls(run, inst)
        traced_sequential_build(run, inst, None)


RUNNERS = {"index-query": index_query, "dataflow-build": dataflow_build}


# -- session, environment and output ---------------------------------------------

def start_spark(cores: int):
    """Local Spark session with the test session's join settings."""
    from pyspark.sql import SparkSession

    tmp = OUT_DIR / "tmp"
    spark = (
        SparkSession.builder.master(f"local[{cores}]")
        .appName("rlcbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .config("spark.sql.shuffle.partitions", str(cores))
        .config("spark.sql.adaptive.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def environment(spark) -> dict:
    import duckdb
    import pyspark

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(p.relative_to(ROOT).as_posix().encode())
        digest.update(p.read_bytes())
    with open("/proc/meminfo") as f:
        mem_kb = int(f.readline().split()[1])
    conf = spark.conf
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "mem_total_kb": mem_kb,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "duckdb": duckdb.__version__,
        "java": spark._jvm.System.getProperty("java.version"),
        "spark_master": spark.sparkContext.master,
        "spark.sql.shuffle.partitions": conf.get("spark.sql.shuffle.partitions"),
        "spark.sql.adaptive.enabled": conf.get("spark.sql.adaptive.enabled"),
        "spark.sql.autoBroadcastJoinThreshold": conf.get("spark.sql.autoBroadcastJoinThreshold"),
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    cores = min(4, os.cpu_count() or 1)
    t0 = perf()
    spark = start_spark(cores)
    spark_start_s = perf() - t0
    log(f"spark started in {spark_start_s:.2f}s")
    env = environment(spark)
    reset_peak_rss()
    run = Run(spark, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    RUNNERS[args.workload](run)
    v = run.values
    v["setup_s"] = spark_start_s + median(run.times["setup_s"])
    for name in ("graph.generate_s", "graph.to_adjacency_s", "querygen.generate_s"):
        v[name] = median(run.times[name])
    for m in wanted:
        if args.trace:
            v.setdefault(m["name"], 0)  # a layer this workload never calls did no work
        elif m["name"] not in v:
            raise KeyError(f"workload produced no {m['name']}")
    metrics = {m["name"]: {"value": v[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "held_out_seed": 4242,
        "workload_spec": dataclasses.asdict(run.workload),
        "analog": dataclasses.asdict(analog(run.workload)),
        "environment": env,
        "spark_start_s": spark_start_s,
        "raw_times": run.times,
        "samples": run.samples,
        "result": result,
    }
    run.stop_spark()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"failure share: {run.failed}/{run.attempted}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
