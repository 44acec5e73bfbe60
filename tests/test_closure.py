"""Tests for the distributed concise closure (ETC) against brute force and a
DuckDB recursive-CTE oracle."""
import pytest
from pyspark.sql import functions as F

from repro.core.closure import (
    Budget,
    BudgetExceeded,
    EtcIndex,
    concise_closure,
    exact_paths,
    mr_hops,
)
from repro.core.graph import LabeledGraph
from repro.core.labels import encode
from repro.core.querygen import queries_to_df
from repro.core.sequential import brute_force_closure
from repro.graphs.generators import fig2_graph
from repro.oracle import assert_equivalent
from tests.util import adjacency_edges, seeded_graph


@pytest.fixture(scope="module")
def fig2(spark):
    return fig2_graph(spark)


@pytest.fixture(scope="module")
def fig2_closure(spark, fig2):
    return concise_closure(fig2, 2).cache()


def test_exact_paths_level1_is_edges(spark, fig2):
    p1 = exact_paths(fig2, 1)
    got = {(r.src, r.dst, tuple(r.seq)) for r in p1.collect()}
    want = {(r.src, r.dst, (r.label,)) for r in fig2.edges.collect()}
    assert got == want


def test_exact_paths_depth2_count(spark, fig2):
    paths = {(r.src, r.dst, tuple(r.seq)) for r in exact_paths(fig2, 2).collect()}
    # contains e.g. the length-2 path v3 -l2-> v4 -l1-> v1
    assert (3, 1, ("l2", "l1")) in paths
    assert all(1 <= len(seq) <= 2 for _, _, seq in paths)


def test_mr_hops_only_primitive(spark, fig2):
    hops = mr_hops(fig2, 2).collect()
    assert all("," not in r.mr or r.mr.split(",")[0] != r.mr.split(",")[1] for r in hops)
    # (l2,l2) from v1 to v4 is not primitive, so it is not a hop; (l2) hops exist.
    assert {(r.src, r.dst) for r in hops if r.mr == "l2"} >= {(1, 3), (3, 1), (3, 4)}


def test_closure_matches_brute_force_fig2(spark, fig2, fig2_closure):
    got = {(r.src, r.dst, r.mr) for r in fig2_closure.collect()}
    out_adj = {}
    for r in fig2.edges.collect():
        out_adj.setdefault(r.src, []).append((r.label, r.dst))
        out_adj.setdefault(r.dst, [])
    want = {(s, t, encode(L)) for s, t, L in brute_force_closure(out_adj, 2)}
    assert got == want


@pytest.mark.parametrize("seed", [1, 4])
def test_closure_matches_brute_force_random(spark, seed):
    out_adj, _, _, k = seeded_graph(seed)
    g = LabeledGraph.from_edge_list(spark, adjacency_edges(out_adj))
    got = {(r.src, r.dst, r.mr) for r in concise_closure(g, k).collect()}
    want = {(s, t, encode(L)) for s, t, L in brute_force_closure(out_adj, k)}
    assert got == want


def test_closure_duckdb_recursive_cte_oracle(spark, fig2, fig2_closure):
    """The per-L closure equals DuckDB's recursive-CTE evaluation of L+."""
    got = (
        fig2_closure.where(F.col("mr") == "l2,l1")
        .select("src", "dst")
        .distinct()
    )
    sql = """
    WITH RECURSIVE hop AS (
      SELECT e1.src AS src, e2.dst AS dst
      FROM edges e1 JOIN edges e2 ON e1.dst = e2.src
      WHERE e1.label = 'l2' AND e2.label = 'l1'
    ),
    reach(src, dst) AS (
      SELECT src, dst FROM hop
      UNION
      SELECT r.src, h.dst FROM reach r JOIN hop h ON h.src = r.dst
    )
    SELECT DISTINCT src, dst FROM reach
    """
    assert_equivalent(got, sql, edges=fig2.edges)


def test_etc_index_interfaces(spark, fig2, fig2_closure):
    etc = EtcIndex(fig2_closure, 2)
    n = etc.entry_count()
    assert n == fig2_closure.count() == 42
    assert etc.size_bytes() > 16 * n  # 16B pair + >=1 label byte each
    queries = queries_to_df(
        spark,
        [(3, 6, ("l2", "l1")), (1, 3, ("l1",)), (1, 2, ("l2", "l1"))],
    )
    ans = {r.qid: r.answer for r in etc.query_batch(queries).collect()}
    assert ans == {0: True, 1: False, 2: True}
    driver = etc.to_driver()
    assert "l2,l1" in driver[(3, 6)]


@pytest.mark.parametrize(
    "bad",
    [(1, 5, ("l1", "l1")), (3, 1, ("l1", "l2", "l1"))],  # non-primitive; |L| > k
)
def test_etc_query_batch_rejects_invalid_constraint(spark, fig2_closure, bad):
    queries = queries_to_df(spark, [(1, 2, ("l1",)), bad])
    with pytest.raises(ValueError):
        EtcIndex(fig2_closure, 2).query_batch(queries)


def test_budget_rows_exceeded(spark, fig2):
    with pytest.raises(BudgetExceeded):
        concise_closure(fig2, 2, budget=Budget(max_rows=5))


def test_budget_time_exceeded(spark, fig2):
    with pytest.raises(BudgetExceeded):
        concise_closure(fig2, 2, budget=Budget(max_seconds=0.0))
