"""Collect a small Spark result to the driver through Arrow, and name
the Spark jobs that do it."""
from __future__ import annotations

import warnings
from collections.abc import Iterator
from contextlib import contextmanager

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

#: The local property behind ``SparkContext.setJobDescription``.
_DESCRIPTION = "spark.job.description"


def arrow_collect(df: DataFrame) -> pd.DataFrame:
    """``df.toPandas()`` (an Arrow collect: faster than ``collect()``
    for thousands of rows).

    When a task fails mid-collect, pyspark warns with the executor's
    whole traceback ("... reached the error below and can not
    continue") before it raises the same error as a
    ``PythonException``.  Only that warning is silenced, so an error is
    reported once; the one for a schema Arrow cannot take, which flags
    the slow non-Arrow path, is kept.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore",
            message=".*reached the error below and can not continue",
            category=UserWarning,
        )
        return df.toPandas()


@contextmanager
def job_description(spark: SparkSession, description: str) -> Iterator[None]:
    """Describe the Spark jobs this thread starts inside the block as
    ``description`` (``layer[.level]``), then restore the caller's
    description, also when the block raises.  The job group is left
    alone."""
    sc = spark.sparkContext
    caller = sc.getLocalProperty(_DESCRIPTION)
    sc.setLocalProperty(_DESCRIPTION, description)
    try:
        yield
    finally:
        sc.setLocalProperty(_DESCRIPTION, caller)
