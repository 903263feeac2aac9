"""Collect a small Spark result to the driver through Arrow."""
from __future__ import annotations

import warnings

import pandas as pd
from pyspark.sql import DataFrame


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
