"""Structured Streaming ingestion for the FTPMfTS pipeline.

Raw sensor readings arrive as timestamped files (one reading per row,
possibly several readings inside one symbolization slot).  The stream
is aggregated with an event-time window of ``slot_seconds`` per
variable — the windowed-aggregation step of the repro plan — and the
mean value per (variable, window) is thresholded into a symbol.  The
result is the same ``(var, t, symbol)`` relation the batch
:mod:`repro.core.symbolize` produces, with ``t`` the slot index, so the
rest of the pipeline (instances → sequences → mining) is unchanged.

``run_available_now`` drains all currently available input with an
``availableNow`` trigger into an in-memory table and returns it — the
pattern used by the tests and by incremental re-mining jobs.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    DoubleType,
    StringType,
    StructField,
    StructType,
    TimestampType,
)

#: Schema of raw streaming readings files.
READING_SCHEMA = StructType(
    [
        StructField("var", StringType(), False),
        StructField("ts", TimestampType(), False),
        StructField("value", DoubleType(), False),
    ]
)


def read_reading_stream(spark: SparkSession, input_path: str) -> DataFrame:
    """File-source stream of raw readings (CSV, schema enforced)."""
    return (
        spark.readStream.schema(READING_SCHEMA)
        .option("header", "false")
        .csv(input_path)
    )


def windowed_symbolize(
    readings: DataFrame,
    *,
    slot_seconds: int,
    threshold: float = 0.05,
    on: str = "On",
    off: str = "Off",
) -> DataFrame:
    """Event-time windowed aggregation → symbols.

    Works on both batch and streaming DataFrames: groups readings into
    per-variable tumbling windows of ``slot_seconds``, averages the
    readings in each window, and maps the mean through the On/Off
    threshold.  Output: ``(var, t, symbol)`` with ``t`` the slot index
    (window start / slot length).
    """
    # SQL strings, not Column expressions: Spark parses each in one
    # call, where every Column operator is a round trip to the JVM.
    agg = readings.groupBy(
        "var", F.expr(f"window(ts, '{slot_seconds} seconds') AS win")
    ).agg(F.expr("avg(value) AS mean_value"))
    return agg.selectExpr(
        "var",
        f"CAST(unix_timestamp(win.start) / {slot_seconds} AS BIGINT) AS t",
        f"CASE WHEN mean_value >= CAST('{float(threshold)!r}' AS DOUBLE)"
        f" THEN {_sql_string(on)}"
        f" ELSE {_sql_string(off)} END AS symbol",
    )


def _sql_string(s: str) -> str:
    """``s`` as a Spark SQL string literal."""
    return "'" + s.replace("\\", "\\\\").replace("'", "\\'") + "'"


def run_available_now(
    sdf: DataFrame, query_name: str, *, timeout_sec: float = 120
) -> DataFrame:
    """Drain a streaming aggregation into an in-memory table.

    Uses ``complete`` output mode (the aggregation state is small: one
    row per variable and slot) with an ``availableNow`` trigger, waits
    for the drain to finish, and returns the materialized table, a temp
    view named ``query_name`` that the caller drops when done.  A
    ``timeout_sec`` that is not positive raises ``ValueError`` before
    the query starts; if the drain times out or fails, the query is
    stopped and the view dropped before the error propagates.
    """
    if not timeout_sec > 0:
        raise ValueError(f"timeout_sec must be > 0, got {timeout_sec!r}")
    spark = sdf.sparkSession
    query = (
        sdf.writeStream.format("memory")
        .queryName(query_name)
        .outputMode("complete")
        .trigger(availableNow=True)
        .start()
    )
    try:
        if not query.awaitTermination(timeout_sec):
            raise TimeoutError(
                f"streaming query {query_name!r} did not drain in "
                f"{timeout_sec}s"
            )
    except BaseException:
        query.stop()
        spark.catalog.dropTempView(query_name)
        raise
    query.stop()
    return spark.table(query_name)
