"""Spark data-transformation phase: symbolization + event extraction.

Every aggregation with a SQL equivalent is cross-checked against the
DuckDB oracle.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.events import to_instances
from repro.core.symbolize import percentile_symbolize, threshold_symbolize
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def readings_pdf():
    rng = np.random.default_rng(42)
    rows = []
    for var in ["a", "b", "c"]:
        vals = rng.random(200)
        rows += [(var, t, float(v)) for t, v in enumerate(vals)]
    return pd.DataFrame(rows, columns=["var", "t", "value"])


def test_threshold_symbolize_matches_oracle(spark, readings_pdf):
    df = spark.createDataFrame(readings_pdf)
    out = threshold_symbolize(df, threshold=0.5)
    assert_equivalent(
        out,
        "SELECT var, t, CASE WHEN value >= 0.5 THEN 'On' ELSE 'Off' END "
        "AS symbol FROM readings",
        readings=readings_pdf,
    )


def test_threshold_symbolize_custom_labels(spark):
    pdf = pd.DataFrame(
        {"var": ["x"] * 3, "t": [0, 1, 2], "value": [0.0, 0.05, 1.0]}
    )
    out = threshold_symbolize(
        spark.createDataFrame(pdf), threshold=0.05, on="HI", off="LO"
    ).toPandas()
    assert list(out.sort_values("t")["symbol"]) == ["LO", "HI", "HI"]


def test_percentile_symbolize_equi_depth(spark, readings_pdf):
    df = spark.createDataFrame(readings_pdf)
    out = percentile_symbolize(df, ["low", "mid", "high"]).toPandas()
    counts = out.groupby(["var", "symbol"]).size().unstack()
    # equi-depth: each state gets roughly a third of 200 slots per var
    assert (counts > 40).all().all()
    assert set(out["symbol"]) == {"low", "mid", "high"}


def test_percentile_symbolize_matches_oracle(spark, readings_pdf):
    df = spark.createDataFrame(readings_pdf)
    out = percentile_symbolize(df, ["low", "high"], [0.75])
    assert_equivalent(
        out,
        "SELECT var, t, CASE WHEN percent_rank() OVER "
        "(PARTITION BY var ORDER BY value) < 0.75 THEN 'low' ELSE 'high' "
        "END AS symbol FROM readings",
        readings=readings_pdf,
    )


def test_percentile_symbolize_custom_boundaries(spark):
    pdf = pd.DataFrame(
        {"var": ["x"] * 100, "t": range(100), "value": np.arange(100.0)}
    )
    out = (
        percentile_symbolize(
            spark.createDataFrame(pdf),
            ["vlow", "low", "mid", "high", "vhigh"],
            [0.10, 0.25, 0.50, 0.75],
        )
        .toPandas()
        .sort_values("t")
    )
    # value 0..99 ascending; percent_rank = t/99
    assert list(out["symbol"])[:5] == ["vlow"] * 5
    assert out.iloc[50]["symbol"] == "high"
    assert out.iloc[99]["symbol"] == "vhigh"


def test_percentile_symbolize_validates_args(spark, readings_pdf):
    df = spark.createDataFrame(readings_pdf)
    with pytest.raises(ValueError):
        percentile_symbolize(df, ["one"])
    with pytest.raises(ValueError):
        percentile_symbolize(df, ["a", "b", "c"], [0.5])


@pytest.mark.parametrize(
    "percentiles",
    [[0.95, 0.75, 0.5], [0.25, 0.5, 0.5], [0.0, 0.5, 0.75], [0.25, 0.5, 1.0]],
    ids=["unsorted", "duplicate", "zero", "one"],
)
def test_percentile_symbolize_rejects_bad_boundaries(spark, readings_pdf, percentiles):
    """Unsorted boundaries gave every value below the largest one the
    first label; the bad input is now refused before any Spark plan."""
    df = spark.createDataFrame(readings_pdf)
    with pytest.raises(ValueError, match="strictly increasing inside"):
        percentile_symbolize(df, ["a", "b", "c", "d"], percentiles)


def _instances_oracle_sql() -> str:
    return (
        "SELECT var, symbol, min(t) AS start, max(t) + 1 AS \"end\" FROM ("
        "  SELECT var, t, symbol, sum(boundary) OVER "
        "    (PARTITION BY var ORDER BY t) AS run_id FROM ("
        "    SELECT var, t, symbol, CASE WHEN "
        "      lag(symbol) OVER (PARTITION BY var ORDER BY t) IS NULL "
        "      OR lag(symbol) OVER (PARTITION BY var ORDER BY t) <> symbol "
        "      OR lag(t) OVER (PARTITION BY var ORDER BY t) <> t - 1 "
        "      THEN 1 ELSE 0 END AS boundary FROM syms)) "
        "GROUP BY var, symbol, run_id"
    )


def test_to_instances_matches_oracle(spark, readings_pdf):
    syms = threshold_symbolize(spark.createDataFrame(readings_pdf), threshold=0.5)
    out = to_instances(syms)
    assert_equivalent(out, _instances_oracle_sql(), syms=syms.toPandas())


def test_to_instances_simple_runs(spark):
    pdf = pd.DataFrame(
        {
            "var": ["x"] * 6,
            "t": [0, 1, 2, 3, 4, 5],
            "symbol": ["On", "On", "Off", "Off", "On", "On"],
        }
    )
    out = to_instances(spark.createDataFrame(pdf)).toPandas()
    got = set(out.itertuples(index=False, name=None))
    assert got == {("x", "On", 0, 2), ("x", "Off", 2, 4), ("x", "On", 4, 6)}


def test_to_instances_gap_splits_run(spark):
    pdf = pd.DataFrame(
        {"var": ["x"] * 4, "t": [0, 1, 5, 6], "symbol": ["On"] * 4}
    )
    out = to_instances(spark.createDataFrame(pdf)).toPandas()
    got = set(out.itertuples(index=False, name=None))
    assert got == {("x", "On", 0, 2), ("x", "On", 5, 7)}


def test_to_instances_multi_var_independent(spark):
    pdf = pd.DataFrame(
        {
            "var": ["x", "x", "y", "y"],
            "t": [0, 1, 0, 1],
            "symbol": ["On", "Off", "Off", "Off"],
        }
    )
    out = to_instances(spark.createDataFrame(pdf)).toPandas()
    got = set(out.itertuples(index=False, name=None))
    assert got == {
        ("x", "On", 0, 1),
        ("x", "Off", 1, 2),
        ("y", "Off", 0, 2),
    }
