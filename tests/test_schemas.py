"""The output schemas of the transformation builders, pinned: names,
types and nullability, on batch and streaming inputs; and the values
that ``windowed_symbolize`` writes into its SQL as literals."""
from datetime import datetime

import pandas as pd
import pytest
from pyspark.sql.types import LongType, StringType, StructField, StructType

from repro.core.events import to_instances
from repro.core.streaming import READING_SCHEMA, read_reading_stream, windowed_symbolize


def _schema(*fields):
    types = {"t": LongType(), "start": LongType(), "end": LongType()}
    return StructType(
        [StructField(name, types.get(name, StringType()), null) for name, null in fields]
    )


def test_to_instances_schema(spark):
    pdf = pd.DataFrame({"var": ["x"] * 3, "t": [0, 1, 2], "symbol": ["On", "On", "Off"]})
    got = to_instances(spark.createDataFrame(pdf)).schema
    assert got == _schema(("var", True), ("symbol", True), ("start", True), ("end", True))


def test_windowed_symbolize_schema_batch(spark):
    readings = spark.createDataFrame([("x", datetime(2020, 1, 1), 1.0)], READING_SCHEMA)
    syms = windowed_symbolize(readings, slot_seconds=300)
    assert syms.schema == _schema(("var", False), ("t", True), ("symbol", False))
    instances = to_instances(syms).schema
    assert instances == _schema(
        ("var", False), ("symbol", False), ("start", True), ("end", True)
    )


def test_windowed_symbolize_schema_stream(spark, tmp_path):
    syms = windowed_symbolize(read_reading_stream(spark, str(tmp_path)), slot_seconds=300)
    assert syms.isStreaming
    assert syms.schema == _schema(("var", True), ("t", True), ("symbol", False))


@pytest.mark.parametrize("threshold", [0.5, float("inf")])
def test_windowed_symbolize_literals(spark, threshold):
    """Labels with a quote or a backslash, and a threshold of any float,
    reach the output as given."""
    readings = spark.createDataFrame(
        [("x", datetime(2020, 1, 1), 1.0), ("y", datetime(2020, 1, 1), 0.0)],
        READING_SCHEMA,
    )
    on, off = "it's", "a\\b"
    out = windowed_symbolize(
        readings, slot_seconds=300, threshold=threshold, on=on, off=off
    ).toPandas()
    got = dict(zip(out["var"], out["symbol"]))
    assert got == {"x": on if threshold <= 1.0 else off, "y": off}
