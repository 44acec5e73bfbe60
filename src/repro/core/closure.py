"""Distributed concise transitive closure — the paper's ETC baseline (§VI-a).

The extended transitive closure records, for every reachable pair ``(u, v)``,
the *concise set* ``S^k(u, v)`` of minimum repeats (Definition 2). Our
distributed formulation uses the §IV reduction: ``u ~L+~> v`` iff ``(u, v)``
is in the transitive closure of the *hop relation* ``R_L = {(a, b) : some
path a→b has label sequence exactly L}``, for ``L`` a primitive sequence of
length ≤ k (any path whose sequence is ``L^m`` decomposes at repeat
boundaries into ``R_L`` hops, and ``MR(L^m) = L`` by Fine–Wilf).

So: (1) enumerate all distinct ``(src, dst, seq)`` exact paths of length ≤ k
with level-wise joins over the label-partitioned edge table; (2) keep the
primitive sequences as one big hop table keyed by ``mr``; (3) run a
semi-naive transitive closure with ``mr`` in the join key — all labels'
closures advance in the same iteration, which is the "edge tables
partitioned by label" dataflow mapping.

ETC blows up exactly as the paper reports (Table IV: buildable only for the
smallest graph in 24h); :class:`Budget` lets callers cap wall-clock time or
materialized pairs and report "-" instead of hanging.
"""
from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import BooleanType, StringType

from repro.core import labels as lab
from repro.core.graph import LabeledGraph
from repro.core.index import check_query_constraints

udf_mr = F.udf(lambda seq: lab.encode(lab.mr(tuple(seq))), StringType())
udf_is_primitive = F.udf(lambda seq: lab.is_primitive(tuple(seq)), BooleanType())


class BudgetExceeded(RuntimeError):
    """Raised when an offline computation exceeds its time/size budget —
    the reproduction's analogue of the paper's 24-hour timeout ("-")."""


@dataclass
class Budget:
    """Caps on an offline computation. ``max_seconds`` runs from
    :meth:`start` over the whole computation; ``max_rows`` and
    ``max_iterations`` bound the rows and rounds of each semi-naive fixpoint
    (:func:`semi_naive`) the computation runs."""

    max_seconds: float | None = None
    max_rows: int | None = None
    max_iterations: int = 1000

    def start(self) -> "Budget":
        self._t0 = time.monotonic()
        return self

    def check(self, rows: int, iteration: int, what: str) -> None:
        """Raise BudgetExceeded naming ``what``, the round reached and the
        rows so far once a cap is passed."""
        if self.max_seconds is not None and time.monotonic() - self._t0 > self.max_seconds:
            cap = f"{self.max_seconds}s"
        elif self.max_rows is not None and rows > self.max_rows:
            cap = f"{self.max_rows} rows"
        elif iteration > self.max_iterations:
            cap = f"{self.max_iterations} rounds"
        else:
            return
        raise BudgetExceeded(f"{what}: exceeded {cap} at round {iteration} with {rows} rows")

    @contextmanager
    def enforce(self, spark, what: str):
        """Hard wall-clock enforcement: a watchdog thread cancels this
        thread's Spark job group when the deadline passes, so a *single*
        long-running join cannot outlive the budget (the per-iteration
        :meth:`check` only fires between jobs). Raises BudgetExceeded when
        the watchdog cancelled the work."""
        if self.max_seconds is None:
            yield
            return
        sc = spark.sparkContext
        group = f"budget-{what}-{id(self)}"
        fired = threading.Event()
        done = threading.Event()

        def watchdog():
            remaining = self.max_seconds - (time.monotonic() - self._t0)
            if not done.wait(max(0.0, remaining)):
                fired.set()
                sc.cancelJobGroup(group)

        sc.setJobGroup(group, what, interruptOnCancel=True)
        w = threading.Thread(target=watchdog, daemon=True)
        w.start()
        try:
            yield
        except Exception as e:  # cancelled jobs surface as Py4J errors
            if fired.is_set():
                raise BudgetExceeded(f"{what}: exceeded {self.max_seconds}s (cancelled)") from e
            raise
        finally:
            done.set()
            sc.setLocalProperty("spark.jobGroup.id", None)


def exact_paths(graph: LabeledGraph, k: int) -> DataFrame:
    """All distinct ``(src, dst, seq)`` with ``seq`` the exact label sequence
    of some path of length 1..k (``seq``: array<string>)."""
    e = graph.edges
    level = e.select("src", "dst", F.array("label").alias("seq"))
    out = level
    for _ in range(1, k):
        nxt = e.select(F.col("src").alias("_s"), "label", F.col("dst").alias("_d"))
        level = (
            level.join(nxt, level["dst"] == F.col("_s"))
            .select(
                level["src"],
                F.col("_d").alias("dst"),
                F.concat("seq", F.array("label")).alias("seq"),
            )
            .distinct()
        )
        out = out.unionByName(level)
    return out


def mr_hops(graph: LabeledGraph, k: int) -> DataFrame:
    """The union of hop relations: ``(mr, src, dst)`` for every primitive
    exact sequence of length ≤ k (deduplicated)."""
    paths = exact_paths(graph, k)
    return (
        paths.where(udf_is_primitive("seq"))
        .select(F.array_join("seq", lab.SEP).alias("mr"), "src", "dst")
        .distinct()
    )


def semi_naive(
    seed: DataFrame,
    step: Callable[[DataFrame], DataFrame],
    budget: Budget,
    what: str,
) -> DataFrame:
    """The least ``X = seed ∪ step(X)`` by semi-naive evaluation (Bancilhon &
    Ramakrishnan, SIGMOD 1986): each round applies ``step`` to the rows new
    in the previous round only, then ``distinct``, drops the rows already
    known (anti-join on every column) and checkpoints the rest; the fixpoint
    is reached when a round adds no row. ``seed`` must be duplicate-free;
    checkpoint it first if it is costly to recompute. Every round is counted
    once and checked against ``budget`` with the running row total.
    """
    known = delta = seed
    total = seed.count()
    for rounds in itertools.count(1):
        delta = step(delta).distinct().join(known, seed.columns, "left_anti").localCheckpoint()
        n = delta.count()
        total += n
        budget.check(total, rounds, what)
        if n == 0:
            # The union keeps every round's partitions; coalesce so that
            # later scans do not pay one task per round and partition.
            return known.coalesce(known.sparkSession.sparkContext.defaultParallelism)
        known = known.unionByName(delta)


def concise_closure(
    graph: LabeledGraph, k: int, budget: Budget | None = None
) -> DataFrame:
    """The concise transitive closure ``{(src, dst, mr)}`` = ETC contents:
    the :func:`semi_naive` fixpoint of ``delta ⋈ R`` (extend by one primitive
    hop) seeded with the hops themselves. Lineage is checkpointed."""
    budget = (budget or Budget()).start()
    spark = graph.edges.sparkSession
    what = "concise_closure(ETC)"
    with budget.enforce(spark, what):
        hops = mr_hops(graph, k).localCheckpoint()
        r = hops.select(
            F.col("mr").alias("_m"), F.col("src").alias("_s"), F.col("dst").alias("_d")
        )

        def step(delta: DataFrame) -> DataFrame:
            return delta.join(
                r, (delta["mr"] == F.col("_m")) & (delta["dst"] == F.col("_s"))
            ).select(delta["mr"], delta["src"], F.col("_d").alias("dst"))

        return semi_naive(hops, step, budget, what)


class EtcIndex:
    """ETC wrapped with the same interfaces as the RLC index (Table IV/V)."""

    def __init__(self, closure: DataFrame, k: int):
        self.df = closure
        self.k = k

    def entry_count(self) -> int:
        return self.df.count()

    def size_bytes(self) -> int:
        """16 bytes for the vertex pair + mr bytes per closure entry."""
        row = self.df.agg(F.sum(F.lit(16) + F.length("mr")).alias("b")).collect()[0][0]
        return int(row or 0)

    def query_batch(self, queries: DataFrame) -> DataFrame:
        """Answer a batch of queries ``(qid, src, dst, mr)`` → ``(qid, answer)``.
        Raises ValueError if some ``mr`` is not a minimum repeat of length <= k."""
        check_query_constraints(queries, self.k)
        hit = (
            queries.join(self.df, ["src", "dst", "mr"], "leftsemi")
            .select("qid")
            .distinct()
            .withColumn("answer", F.lit(True))
        )
        return queries.select("qid").join(hit, "qid", "left").fillna(False, subset=["answer"])

    def to_driver(self) -> dict[tuple[int, int], set[str]]:
        """Driver hashmap ``(src, dst) -> {mr}`` — the paper's ETC stores
        reachable pairs with their k-MR sets in a hashmap (§VI-a)."""
        out: dict[tuple[int, int], set[str]] = {}
        for r in self.df.collect():
            out.setdefault((r.src, r.dst), set()).add(r.mr)
        return out
