"""Online-traversal baselines (paper §VI-a): NFA-guided BFS and BiBFS.

The paper's baselines evaluate an RLC query by traversing the graph guided
by the minimized NFA of the query's regular expression. For ``L+`` with
``|L| = m`` that NFA is a cycle of ``m`` states; the traversal explores the
product space ``(vertex, state)`` — at most ``|V| * m`` states, so it always
terminates even on cyclic graphs.

Three implementations:

- :func:`nfa_bfs` / :func:`nfa_dfs` — driver-side product-state search for an
  arbitrary small NFA (used per-query, and as the Sys2 engine stand-in);
- :func:`bibfs` — bidirectional BFS specialized to ``L+`` (the paper's
  strongest online baseline); frontiers meet when forward progress ``i`` and
  backward progress ``j`` align (``(i + j) mod m == 0``) at the same vertex;
- :func:`batch_nfa_bfs` — the BFS baseline as distributed dataflow: one
  semi-naive fixpoint carrying every query in the workload at once.
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from pyspark.sql import DataFrame, functions as F

from repro.core.closure import Budget, semi_naive
from repro.core.graph import LabeledGraph
from repro.core.labels import SEP
from repro.core.sequential import Adjacency


@dataclass
class Nfa:
    """A small NFA over edge labels; states are ints, ``trans[(q, label)]``
    is the set of successor states."""

    start: int
    accept: frozenset[int]
    trans: dict[tuple[int, str], frozenset[int]] = field(default_factory=dict)

    @classmethod
    def kleene_plus(cls, L: Sequence[str]) -> "Nfa":
        """NFA for ``L+``: an m-cycle; state = labels consumed mod m.
        Accepting at state 0 *after at least one transition* (the search
        functions never test the start configuration for acceptance)."""
        m = len(L)
        trans = {(i, L[i]): frozenset({(i + 1) % m}) for i in range(m)}
        return cls(start=0, accept=frozenset({0}), trans=trans)

    @classmethod
    def concat_plus(cls, a: str, b: str) -> "Nfa":
        """NFA for the paper's extended query Q4: ``a+ . b+``."""
        trans = {
            (0, a): frozenset({1}),
            (1, a): frozenset({1}),
            (1, b): frozenset({2}),
            (2, b): frozenset({2}),
        }
        return cls(start=0, accept=frozenset({2}), trans=trans)

    def step(self, q: int, label: str) -> frozenset[int]:
        return self.trans.get((q, label), frozenset())


def _nfa_search(out_adj: Adjacency, s: int, t: int, nfa: Nfa, lifo: bool) -> bool:
    """Product-state search over ``(vertex, state)``, popping the newest
    configuration (``lifo``, DFS) or the oldest (BFS); true iff some path
    from ``s`` to ``t`` spells a word the NFA accepts (>= 1 edge)."""
    start = (s, nfa.start)
    visited = {start}
    todo = deque([start])
    pop = todo.pop if lifo else todo.popleft
    while todo:
        v, q = pop()
        for lbl, w in out_adj.get(v, ()):
            for q2 in nfa.step(q, lbl):
                if w == t and q2 in nfa.accept:
                    return True
                if (w, q2) not in visited:
                    visited.add((w, q2))
                    todo.append((w, q2))
    return False


def nfa_bfs(out_adj: Adjacency, s: int, t: int, nfa: Nfa) -> bool:
    """Product-state BFS; true iff some path from ``s`` to ``t`` spells a
    word the NFA accepts (>= 1 edge)."""
    return _nfa_search(out_adj, s, t, nfa, lifo=False)


def nfa_dfs(out_adj: Adjacency, s: int, t: int, nfa: Nfa) -> bool:
    """Depth-first variant (same product-state memoization); the paper notes
    DFS as the same-complexity alternative — our Sys2 engine stand-in."""
    return _nfa_search(out_adj, s, t, nfa, lifo=True)


def bibfs(out_adj: Adjacency, in_adj: Adjacency, s: int, t: int, L: Sequence[str]) -> bool:
    """Bidirectional BFS for ``(s, t, L+)``. Forward states count labels
    consumed from the start mod m; backward states count labels consumed
    from the end mod m. A meet at vertex ``v`` with forward state ``i`` and
    backward state ``j`` is a witness iff ``(i + j) % m == 0`` and at least
    one side has moved (rules out the zero-length "path")."""
    m = len(L)
    # A landed-on configuration always counts as "moved"; the pre-seeded
    # start configurations (s, 0) / (t, 0) are only ever the *other* side of
    # a meet, which is valid because the landing side moved.
    fvis: set[tuple[int, int]] = {(s, 0)}
    bvis: set[tuple[int, int]] = {(t, 0)}
    fq: deque[tuple[int, int]] = deque([(s, 0)])
    bq: deque[tuple[int, int]] = deque([(t, 0)])
    while fq or bq:
        # expand the smaller live frontier (classic BiBFS balancing)
        if fq and (not bq or len(fq) <= len(bq)):
            for _ in range(len(fq)):
                v, i = fq.popleft()
                expect = L[i]
                for lbl, w in out_adj.get(v, ()):
                    if lbl != expect:
                        continue
                    i2 = (i + 1) % m
                    # meet check precedes the visited-skip: a revisit can
                    # still complete a meet (e.g. an L-labeled self loop).
                    if (w, (m - i2) % m) in bvis:
                        return True
                    if (w, i2) not in fvis:
                        fvis.add((w, i2))
                        fq.append((w, i2))
        else:
            for _ in range(len(bq)):
                v, j = bq.popleft()
                expect = L[m - 1 - (j % m)]
                for lbl, u in in_adj.get(v, ()):
                    if lbl != expect:
                        continue
                    j2 = (j + 1) % m
                    if (u, (m - j2) % m) in fvis:
                        return True
                    if (u, j2) not in bvis:
                        bvis.add((u, j2))
                        bq.append((u, j2))
    return False


def batch_nfa_bfs(
    graph: LabeledGraph, queries: DataFrame, budget: Budget | None = None
) -> DataFrame:
    """Distributed NFA-guided BFS for a whole workload of ``L+`` queries.

    ``queries``: ``(qid, src, dst, mr)``. One :func:`semi_naive` fixpoint
    carries all queries: rows ``(qid, vertex, pos)`` where ``pos`` = labels
    consumed mod ``m``; each round joins the new rows with the
    (label-partitioned) edge table on the next expected label. Reaching the
    target with ``pos = 0`` emits the marker row ``pos = -1`` instead, and
    the next round drops every row of a query with a marker, so answered
    queries stop exploring. Returns ``(qid, answer)``.
    """
    budget = (budget or Budget(max_iterations=10_000)).start()
    e = graph.edges.select(F.col("src").alias("_at"), "label", F.col("dst").alias("_to"))
    q = queries.select(
        "qid",
        F.col("dst").alias("_target"),
        F.split("mr", re.escape(SEP)).alias("_labels"),
    ).withColumn("_m", F.size("_labels")).localCheckpoint()

    def step(delta: DataFrame) -> DataFrame:
        answered = delta.where(F.col("pos") < 0).select("qid")
        nxt = (F.col("pos") + 1) % F.col("_m")
        return (
            delta.join(answered, "qid", "left_anti")
            .join(q, "qid")
            .join(
                e,
                (F.col("vertex") == F.col("_at"))
                & (F.col("label") == F.element_at("_labels", F.col("pos") + 1)),
            )
            .select(
                "qid",
                F.col("_to").alias("vertex"),
                F.when((F.col("_to") == F.col("_target")) & (nxt == 0), -1)
                .otherwise(nxt)
                .alias("pos"),
            )
        )

    seed = (
        queries.select("qid", F.col("src").alias("vertex"), F.lit(0).alias("pos"))
        .distinct()
        .localCheckpoint()
    )
    reached = semi_naive(seed, step, budget, "batch_nfa_bfs")
    answered = reached.where(F.col("pos") < 0).select("qid", F.lit(True).alias("answer"))
    return queries.select("qid").join(answered, "qid", "left").fillna(
        False, subset=["answer"]
    )
