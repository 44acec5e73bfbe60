"""Tests for the DuckDB oracle itself, on small inline tables: it agrees with
Spark on aggregates and joins, canonicalizes column and row order, rounds
floats to 6 decimals, and still catches real differences."""
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.oracle import assert_equivalent

LINEITEM = pd.DataFrame(
    {
        "l_orderkey": [1, 1, 2, 3, 3, 3],
        "l_returnflag": ["A", "N", "N", "R", "A", "N"],
        "l_quantity": [17.0, 36.5, 8.25, 28.0, 24.1, 32.0],
    }
)
ORDERS = pd.DataFrame(
    {"o_orderkey": [1, 2, 3], "o_orderpriority": ["1-URGENT", "5-LOW", "1-URGENT"]}
)


@pytest.fixture(scope="module")
def lineitem(spark):
    return spark.createDataFrame(LINEITEM)


def test_lineitem_groupby_oracle(spark, lineitem):
    got = (
        lineitem.groupBy("l_returnflag")
        .agg(F.count("*").alias("n"), F.round(F.sum("l_quantity"), 2).alias("qty"))
    )
    sql = """
    SELECT l_returnflag, COUNT(*) AS n, ROUND(SUM(l_quantity), 2) AS qty
    FROM lineitem GROUP BY l_returnflag
    """
    assert_equivalent(got, sql, lineitem=lineitem)


def test_join_oracle(spark, lineitem):
    o = spark.createDataFrame(ORDERS)
    got = (
        lineitem.join(o, lineitem.l_orderkey == o.o_orderkey)
        .groupBy("o_orderpriority")
        .agg(F.count("*").alias("n"))
    )
    sql = """
    SELECT o_orderpriority, COUNT(*) AS n
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    GROUP BY o_orderpriority
    """
    # A pandas table is registered as is, a Spark one after toPandas().
    assert_equivalent(got, sql, lineitem=lineitem, orders=ORDERS)


def test_column_and_row_order_canonicalized(spark, lineitem):
    got = lineitem.select("l_quantity", "l_orderkey").orderBy(F.desc("l_quantity"))
    sql = "SELECT l_orderkey, l_quantity FROM lineitem ORDER BY l_orderkey"
    assert_equivalent(got, sql, lineitem=LINEITEM)


def test_floats_rounded_to_six_decimals(spark):
    # 0.1 + 0.2 sums to 0.30000000000000004; the oracle rounds both sides.
    got = spark.createDataFrame(pd.DataFrame({"x": [0.1, 0.2]})).agg(F.sum("x").alias("s"))
    assert_equivalent(got, "SELECT 0.3::DOUBLE AS s")
    with pytest.raises(AssertionError):
        assert_equivalent(got, "SELECT 0.30001::DOUBLE AS s")


def test_mismatches_raise(spark, lineitem):
    got = lineitem.groupBy("l_returnflag").agg(F.count("*").alias("n"))
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(got, "SELECT l_returnflag, COUNT(*) AS cnt FROM lineitem "
                          "GROUP BY l_returnflag", lineitem=lineitem)
    with pytest.raises(AssertionError):
        assert_equivalent(got, "SELECT l_returnflag, COUNT(*) + 1 AS n FROM lineitem "
                          "GROUP BY l_returnflag", lineitem=lineitem)
