"""Temporal event instance extraction (paper Def. 3.4/3.5).

Combines runs of identical consecutive symbols in a symbolic series
into instances ``(var, symbol, start, end)`` with half-open ``[start,
end)`` slot intervals (``end = last slot + 1``, matching Table III
where e.g. K's On slots 10:00–10:10 become the instance
``[10:00, 10:15]`` at 5-minute resolution).

Implemented with window functions: a run boundary is a change of
symbol *or* a gap in ``t`` (missing slots split runs); a cumulative sum
of boundary flags yields a run id; grouping by run id gives the
instance extent.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

#: Schema of an instances DataFrame.
INSTANCES_COLUMNS = ("var", "symbol", "start", "end")


def to_instances(symbols: DataFrame) -> DataFrame:
    """Symbol runs → event instances.

    Input: ``(var, t, symbol)``.  Output: ``(var, symbol, start, end)``
    with one row per maximal run of identical consecutive symbols.
    """
    # SQL strings, not Column expressions: Spark parses each in one
    # call, where every Column operator is a round trip to the JVM.  A
    # window function cannot nest in a window aggregate, so the
    # boundary flag takes a select of its own.
    w = "OVER (PARTITION BY var ORDER BY t)"
    flagged = symbols.selectExpr(
        "var",
        "t",
        "symbol",
        f"CAST(lag(symbol) {w} IS NULL OR lag(symbol) {w} != symbol"
        f" OR lag(t) {w} != t - 1 AS INT) AS boundary",
    )
    with_run = flagged.selectExpr(
        "var",
        "t",
        "symbol",
        "sum(boundary) OVER (PARTITION BY var ORDER BY t"
        " ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS run_id",
    )
    return with_run.groupBy("var", "symbol", "run_id").agg(
        F.expr("min(t) AS `start`"), F.expr("max(t) + 1 AS `end`")
    ).selectExpr("var", "symbol", "`start`", "`end`")
