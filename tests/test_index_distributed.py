"""Tests for the distributed RLC index builder and batch query evaluation.

The distributed index is cross-validated three ways on each graph: (a) its
driver-side Algorithm 1 queries match the brute-force closure, (b) the
distributed batch query join gives the same answers, and (c) every recorded
entry is sound (appears in the closure)."""
import pytest
from pyspark.sql import functions as F

from repro.core.index import RlcIndex, covered_pairs, empty_entries
from repro.core.index_builder import batch_schedule, build_rlc_index
from repro.core.graph import LabeledGraph
from repro.core.labels import all_mrs, encode
from repro.core.querygen import queries_to_df
from repro.core.sequential import brute_force_closure
from repro.graphs.generators import fig2_graph
from tests.util import adjacency_edges, query_universe, seeded_graph


# ---- batch schedule (pure python) -----------------------------------------

def test_batch_schedule_covers_all():
    assert sum(batch_schedule(1000)) == 1000
    assert sum(batch_schedule(7, first=2, cap=8)) == 7


def test_batch_schedule_growth():
    assert batch_schedule(300, first=32, cap=128) == [32, 64, 128, 76]
    assert batch_schedule(5, first=32) == [5]
    assert batch_schedule(0) == []


# ---- fig2 end-to-end -------------------------------------------------------

@pytest.fixture(scope="module")
def fig2(spark):
    return fig2_graph(spark)


@pytest.fixture(scope="module")
def fig2_dist_index(spark, fig2):
    return build_rlc_index(fig2, 2)


@pytest.fixture(scope="module")
def fig2_truth():
    out_adj = {v: [] for v in range(1, 7)}
    from repro.graphs.generators import FIG2_EDGES

    for s, l, t in FIG2_EDGES:
        out_adj[s].append((l, t))
    return brute_force_closure(out_adj, 2)


ALL_FIG2_QUERIES = [
    (s, t, L) for s in range(1, 7) for t in range(1, 7) for L in all_mrs(["l1", "l2", "l3"], 2)
]


def test_driver_queries_match_closure(fig2_dist_index, fig2_truth):
    drv = fig2_dist_index.to_driver()
    for s, t, L in ALL_FIG2_QUERIES:
        assert drv.query(s, t, L) == ((s, t, L) in fig2_truth), (s, t, L)


def test_batch_queries_match_closure(spark, fig2_dist_index, fig2_truth):
    qdf = queries_to_df(spark, ALL_FIG2_QUERIES)
    ans = {r.qid: r.answer for r in fig2_dist_index.query_batch(qdf).collect()}
    for qid, (s, t, L) in enumerate(ALL_FIG2_QUERIES):
        assert ans[qid] == ((s, t, L) in fig2_truth), (s, t, L)


#: Unsupported constraints with a witness path on Fig. 2 (k=2): the batch
#: must raise, not answer False.
BAD_FIG2_QUERIES = [
    (1, 5, ("l1", "l1")),        # not a minimum repeat: v1 -l1-> v2 -l1-> v5
    (3, 1, ("l1", "l2", "l1")),  # |L| > k: v3 -l1-> v2 -l2-> v5 -l1-> v1
]


@pytest.mark.parametrize("bad", BAD_FIG2_QUERIES)
def test_batch_query_rejects_invalid_constraint(spark, fig2_dist_index, bad):
    qdf = queries_to_df(spark, [(1, 2, ("l1",)), bad])
    with pytest.raises(ValueError):
        fig2_dist_index.query_batch(qdf)


def test_entries_sound(fig2_dist_index, fig2_truth):
    truth = {(s, t, encode(L)) for s, t, L in fig2_truth}
    for r in fig2_dist_index.l_out.collect():
        assert (r.vertex, r.hub, r.mr) in truth
    for r in fig2_dist_index.l_in.collect():
        assert (r.hub, r.vertex, r.mr) in truth


@pytest.fixture(scope="module")
def fig2_small_batch_index(spark, fig2):
    # batch size 2 approaches the sequential algorithm (inter-batch PR1
    # pruning active); on a 6-vertex toy the default single batch cannot
    # prune at all, so size claims are made on this build.
    return build_rlc_index(fig2, 2, first_batch=2, batch_cap=2)


def test_index_much_smaller_than_closure(fig2_small_batch_index, fig2_truth):
    assert fig2_small_batch_index.entry_count() < len(fig2_truth)


def test_size_bytes_positive(fig2_dist_index):
    assert fig2_dist_index.size_bytes() >= 10 * fig2_dist_index.entry_count()


def test_driver_counts_match_spark(fig2_dist_index):
    drv = fig2_dist_index.to_driver()
    assert drv.entry_count() == fig2_dist_index.entry_count()
    assert drv.size_bytes() == fig2_dist_index.size_bytes()


def test_small_batches_equivalent(fig2_small_batch_index, fig2_truth):
    drv = fig2_small_batch_index.to_driver()
    for s, t, L in ALL_FIG2_QUERIES:
        assert drv.query(s, t, L) == ((s, t, L) in fig2_truth), (s, t, L)


# ---- random graphs ---------------------------------------------------------

@pytest.mark.parametrize("seed", [3, 11])
def test_random_graph_equivalence(spark, seed):
    out_adj, _, labels, k = seeded_graph(seed)
    g = LabeledGraph.from_edge_list(spark, adjacency_edges(out_adj))
    idx = build_rlc_index(g, k)
    drv = idx.to_driver()
    truth = brute_force_closure(out_adj, k)
    for s, t, L in query_universe(len(out_adj), all_mrs(labels, k)):
        assert drv.query(s, t, L) == ((s, t, L) in truth), (seed, s, t, L)


def test_many_batches_on_larger_graph(spark):
    # A 60-vertex graph forced through 5+ batches exercises inter-batch
    # pruning (PR1 against earlier batches) end to end.
    import random

    from tests.util import rand_adjacency

    out_adj, _ = rand_adjacency(random.Random(99), 60, 200, ["a", "b"], loops=4)
    g = LabeledGraph.from_edge_list(spark, adjacency_edges(out_adj))
    idx = build_rlc_index(g, 2, first_batch=8, batch_cap=16)
    drv = idx.to_driver()
    truth = brute_force_closure(out_adj, 2)
    for s, t, L in query_universe(60, all_mrs(["a", "b"], 2)):
        assert drv.query(s, t, L) == ((s, t, L) in truth), (s, t, L)


# ---- covered_pairs unit tests ---------------------------------------------

def _entries(spark, rows):
    return spark.createDataFrame(rows, "vertex long, hub long, mr string") if rows else empty_entries(spark)


def test_covered_pairs_empty_index(spark):
    pairs = spark.createDataFrame([(1, 2, "a")], "src long, dst long, mr string")
    got = covered_pairs(pairs, empty_entries(spark), empty_entries(spark))
    assert got.count() == 0


def test_covered_pairs_case2(spark):
    pairs = spark.createDataFrame(
        [(1, 2, "a"), (2, 3, "a"), (9, 9, "a")], "src long, dst long, mr string"
    )
    l_out = _entries(spark, [(1, 2, "a")])     # (2,a) in L_out(1): covers 1->2
    l_in = _entries(spark, [(3, 2, "a")])      # (2,a) in L_in(3): covers 2->3
    got = {(r.src, r.dst) for r in covered_pairs(pairs, l_out, l_in).collect()}
    assert got == {(1, 2), (2, 3)}


def test_covered_pairs_case1_requires_same_hub_and_mr(spark):
    pairs = spark.createDataFrame(
        [(1, 3, "a"), (1, 3, "b"), (4, 3, "a")], "src long, dst long, mr string"
    )
    l_out = _entries(spark, [(1, 9, "a"), (4, 8, "a")])
    l_in = _entries(spark, [(3, 9, "a"), (3, 9, "b")])
    got = {(r.src, r.dst, r.mr) for r in covered_pairs(pairs, l_out, l_in).collect()}
    assert got == {(1, 3, "a")}  # hub 9 matches only for mr 'a' from src 1


def test_query_batch_answers_both_ways(spark):
    idx = RlcIndex(
        k=1,
        l_out=_entries(spark, [(1, 9, "a")]),
        l_in=_entries(spark, [(3, 9, "a")]),
        rank=spark.createDataFrame([(1, 2), (3, 3), (9, 1)], "id long, aid int"),
    )
    qdf = spark.createDataFrame(
        [(0, 1, 3, "a"), (1, 3, 1, "a"), (2, 1, 3, "b")],
        "qid long, src long, dst long, mr string",
    )
    ans = {r.qid: r.answer for r in idx.query_batch(qdf).collect()}
    assert ans == {0: True, 1: False, 2: False}
    drv = idx.to_driver()
    assert drv.query(1, 3, ("a",)) and not drv.query(3, 1, ("a",))
