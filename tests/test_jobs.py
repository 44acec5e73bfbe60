"""Smoke tests: each spark-submit job entrypoint runs end-to-end at tiny
scale (inside pytest the job's SparkSession.getOrCreate() reuses the session
fixture)."""
import importlib.util
import pathlib

import pytest

JOBS = pathlib.Path(__file__).resolve().parent.parent / "jobs"


def load_job(name):
    spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_table2_job(spark):
    out = load_job("table2_example_index").main(["--no-distributed"])
    assert "Table II" in out and "26" in out


def test_table3_job(spark):
    out = load_job("table3_graph_stats").main(["--datasets", "AD", "--scale", "0.2"])
    assert "Table III" in out and "AD" in out


def test_table4_job(spark):
    out = load_job("table4_indexing").main(
        ["--datasets", "AD", "--scale", "0.15", "--etc-budget-rows", "10"]
    )
    assert "Table IV" in out and "PR1 probes=" in out


def test_table5_job(spark):
    out = load_job("table5_engines").main(
        ["--scale", "0.06", "--queries", "6", "--spark-engine-queries", "1"]
    )
    assert "Table V" in out and "Sys2" in out
