"""Tests for the Table V engine stand-ins: all engines must agree with the
ground truth (and hence with each other) on L+ and a+.b+ queries."""
import pytest

from repro.baselines.engines import (
    DuckDbEngine,
    PythonTraversalEngine,
    SparkSqlEngine,
    rlc_eval,
)
from repro.core.labels import all_mrs
from repro.core.sequential import SequentialRlcIndex, brute_force_closure
from repro.graphs.generators import FIG2_EDGES, fig2_graph
from tests.test_online import brute_concat_plus


@pytest.fixture(scope="module")
def fig2_driver():
    out_adj = {v: [] for v in range(1, 7)}
    in_adj = {v: [] for v in range(1, 7)}
    for s, l, t in FIG2_EDGES:
        out_adj[s].append((l, t))
        in_adj[t].append((l, s))
    return out_adj, in_adj


@pytest.fixture(scope="module")
def truth(fig2_driver):
    return brute_force_closure(fig2_driver[0], 2)


@pytest.fixture(scope="module")
def duck(fig2_driver):
    import pandas as pd

    pdf = pd.DataFrame(FIG2_EDGES, columns=["src", "label", "dst"])
    eng = DuckDbEngine(pdf)
    yield eng
    eng.close()


ALL = [(s, t, L) for s in range(1, 7) for t in range(1, 7)
       for L in all_mrs(["l1", "l2", "l3"], 2)]


def test_duckdb_engine_plus(duck, truth):
    for s, t, L in ALL:
        assert duck.evaluate(s, t, ("plus", L)) == ((s, t, L) in truth), (s, t, L)


def test_python_engine_plus(fig2_driver, truth):
    eng = PythonTraversalEngine(fig2_driver[0])
    for s, t, L in ALL:
        assert eng.evaluate(s, t, ("plus", L)) == ((s, t, L) in truth), (s, t, L)


@pytest.mark.parametrize("a,b", [("l1", "l2"), ("l2", "l1"), ("l1", "l3")])
def test_engines_concat_plus(fig2_driver, duck, a, b):
    out_adj = fig2_driver[0]
    py = PythonTraversalEngine(out_adj)
    for s in range(1, 7):
        for t in range(1, 7):
            want = brute_concat_plus(out_adj, s, t, a, b)
            assert duck.evaluate(s, t, ("concat_plus", a, b)) == want, (s, t)
            assert py.evaluate(s, t, ("concat_plus", a, b)) == want, (s, t)


def test_rlc_eval_plus(fig2_driver, truth):
    out_adj, in_adj = fig2_driver
    idx = SequentialRlcIndex(out_adj, in_adj, 2)
    for s, t, L in ALL:
        assert rlc_eval(idx, out_adj, s, t, ("plus", L)) == ((s, t, L) in truth)


@pytest.mark.parametrize("a,b", [("l1", "l2"), ("l2", "l1")])
def test_rlc_eval_hybrid_q4(fig2_driver, a, b):
    # The paper's Q4 strategy: online a+-traversal + index probes for b+.
    out_adj, in_adj = fig2_driver
    idx = SequentialRlcIndex(out_adj, in_adj, 2)
    for s in range(1, 7):
        for t in range(1, 7):
            want = brute_concat_plus(out_adj, s, t, a, b)
            assert rlc_eval(idx, out_adj, s, t, ("concat_plus", a, b)) == want, (s, t)


def test_spark_sql_engine(spark, truth):
    eng = SparkSqlEngine(fig2_graph(spark))
    assert eng.evaluate(3, 6, ("plus", ("l2", "l1"))) is True
    assert eng.evaluate(1, 3, ("plus", ("l1",))) is False


def test_spark_sql_engine_q4(spark, fig2_driver):
    eng = SparkSqlEngine(fig2_graph(spark))
    # (s, t, a, b, answer) on Fig. 2, with s == t cases, a == b and false cases.
    cases = [
        (3, 1, "l2", "l1", True),
        (1, 1, "l2", "l1", True),
        (3, 6, "l2", "l3", True),
        (1, 5, "l1", "l1", True),
        (1, 6, "l1", "l2", False),
        (2, 2, "l1", "l2", False),
    ]
    for s, t, a, b, want in cases:
        assert brute_concat_plus(fig2_driver[0], s, t, a, b) == want, (s, t, a, b)
        assert eng.evaluate(s, t, ("concat_plus", a, b)) == want, (s, t, a, b)


def test_duckdb_engine_quoted_labels():
    """Labels with quotes (one of them SQL that would match every label if
    spliced into the query text) answer exactly like the Python engine."""
    import pandas as pd

    q, inj = "it's", "x' OR 'a'='a"
    edges = [(1, q, 2), (2, q, 3), (3, inj, 1), (2, "l1", 4)]
    out_adj = {v: [] for v in range(1, 5)}
    for s, lbl, t in edges:
        out_adj[s].append((lbl, t))
    py = PythonTraversalEngine(out_adj)
    eng = DuckDbEngine(pd.DataFrame(edges, columns=["src", "label", "dst"]))
    try:
        assert eng.evaluate(1, 3, ("plus", (q,)))
        assert not eng.evaluate(2, 4, ("plus", (inj,)))
        assert eng.evaluate(1, 1, ("concat_plus", q, inj))
        assert not eng.evaluate(2, 2, ("concat_plus", q, q))
        specs = [("plus", (q,)), ("plus", (inj,)), ("plus", (q, inj)),
                 ("concat_plus", q, inj), ("concat_plus", inj, q)]
        for s in range(1, 5):
            for t in range(1, 5):
                for spec in specs:
                    assert eng.evaluate(s, t, spec) == py.evaluate(s, t, spec), (s, t, spec)
    finally:
        eng.close()
