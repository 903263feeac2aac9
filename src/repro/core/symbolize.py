"""Symbolic time series representation (paper §III-A / §VI-A2).

Input is a long-format readings DataFrame ``(var, t, value)`` where
``t`` is an integer slot index and ``value`` the raw measurement.
Two mapping functions are provided, matching the paper's setups:

* :func:`threshold_symbolize` — binary On/Off for the energy datasets
  (``value >= threshold`` → On), paper §VI-A2 uses ``0.05``.
* :func:`percentile_symbolize` — multi-state alphabets for the smart
  city dataset via per-variable percentile bins (e.g. 10/25/50/75/95th
  percentiles for a 5-state variable).

Both are pure Spark DataFrame transformations (Catalyst-optimized).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.window import Window

#: Schema of a readings DataFrame.
READINGS_COLUMNS = ("var", "t", "value")
#: Schema of a symbolic DataFrame (D_SYB in long format).
SYMBOLS_COLUMNS = ("var", "t", "symbol")


def threshold_symbolize(
    readings: DataFrame, *, threshold: float = 0.05, on: str = "On", off: str = "Off"
) -> DataFrame:
    """Binary symbolization: value >= threshold → ``on`` else ``off``."""
    return readings.select(
        "var",
        "t",
        F.when(F.col("value") >= F.lit(threshold), F.lit(on))
        .otherwise(F.lit(off))
        .alias("symbol"),
    )


def percentile_symbolize(
    readings: DataFrame,
    labels: list[str],
    percentiles: list[float] | None = None,
) -> DataFrame:
    """Per-variable percentile binning into ``len(labels)`` states.

    ``percentiles`` are the *upper* boundaries (strictly increasing
    fractions in (0, 1), else ``ValueError``) of the first
    ``len(labels) - 1`` bins; a value whose per-variable
    ``percent_rank`` falls below boundary ``i`` gets ``labels[i]``, and
    anything above the last boundary gets ``labels[-1]``.  Defaults to
    equi-depth bins.
    """
    n = len(labels)
    if n < 2:
        raise ValueError("need at least two states")
    if percentiles is None:
        percentiles = [i / n for i in range(1, n)]
    if len(percentiles) != n - 1:
        raise ValueError("need len(labels) - 1 percentile boundaries")
    bounds = [0.0, *percentiles, 1.0]
    if any(not lo < hi for lo, hi in zip(bounds, bounds[1:])):
        raise ValueError(
            "percentile boundaries must be strictly increasing inside (0, 1), "
            f"got {list(percentiles)!r}"
        )
    w = Window.partitionBy("var").orderBy("value")
    pr = F.percent_rank().over(w)
    expr = F.lit(labels[-1])
    # Build nested whens from the top boundary down so the first (lowest)
    # boundary wins for small values.
    for boundary, label in zip(reversed(percentiles), reversed(labels[:-1])):
        expr = F.when(pr < F.lit(boundary), F.lit(label)).otherwise(expr)
    # percent_rank of the minimum is 0.0 < first boundary, so every value
    # is labeled.
    return readings.select("var", "t", expr.alias("symbol"))
