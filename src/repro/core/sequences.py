"""Temporal sequence database conversion with the splitting strategy
(paper §IV-B2, Fig. 3).

The symbolic series is split into sequences (windows) of ``seq_len``
slots.  Consecutive windows overlap by ``overlap`` slots
(``0 <= overlap <= t_max``): window ``w`` covers slots
``[w * stride, w * stride + seq_len)`` with ``stride = seq_len -
overlap``.  ``overlap = 0`` reproduces the plain equal-length split
(potential pattern loss at the boundary, Fig. 3a); ``overlap = t_max``
preserves every pattern of span ≤ ``t_max`` (Fig. 3b).

Instances are assigned to every window they intersect, clipped to the
window bounds, and re-based so each sequence starts at slot 0 — the
within-sequence geometry is what the relations see.  Implemented with
``explode(sequence(...))``, i.e. a pure Catalyst dataflow.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .collect import job_description
from .seqdb import DSEQ_COLUMNS  # noqa: F401  (documented output schema)


def split_sequences(
    instances: DataFrame,
    *,
    seq_len: int,
    overlap: int = 0,
    n_windows: int | None = None,
    rebase: bool = True,
) -> DataFrame:
    """Instances ``(var, symbol, start, end)`` → D_SEQ rows
    ``(seq_id, event, start, end)`` with ``event = var || ':' || symbol``.

    ``n_windows`` defaults to the number of *fully covered* windows for
    the observed time extent ``[0, max(end))``:
    ``floor((T - seq_len) / stride) + 1``, found by an eager Spark job
    described as ``sequences.n_windows``.  Windows are 0-indexed and
    become the integer ``seq_id``.
    """
    if not 0 <= overlap < seq_len:
        raise ValueError("need 0 <= overlap < seq_len")
    stride = seq_len - overlap
    if n_windows is None:
        with job_description(instances.sparkSession, "sequences.n_windows"):
            t_total = instances.agg(F.max("end")).collect()[0][0] or 0
        n_windows = max(1, (t_total - seq_len) // stride + 1)

    s, e = F.col("start"), F.col("end")
    # Window w intersects [s, e) iff  w*stride < e  and  s < w*stride + seq_len
    w_lo = F.greatest(
        F.lit(0), F.floor((s - F.lit(seq_len)) / F.lit(stride)) + F.lit(1)
    )
    w_hi = F.least(F.lit(n_windows - 1), F.floor((e - F.lit(1)) / F.lit(stride)))
    exploded = (
        instances.withColumn("w_lo", w_lo.cast("long"))
        .withColumn("w_hi", w_hi.cast("long"))
        .where(F.col("w_lo") <= F.col("w_hi"))
        .withColumn("seq_id", F.explode(F.sequence("w_lo", "w_hi")))
    )
    win_start = F.col("seq_id") * F.lit(stride)
    clipped = exploded.select(
        F.col("seq_id").cast("int").alias("seq_id"),
        F.concat_ws(":", "var", "symbol").alias("event"),
        F.greatest(s, win_start).alias("cs"),
        F.least(e, win_start + F.lit(seq_len)).alias("ce"),
        win_start.alias("ws"),
    ).where(F.col("ce") > F.col("cs"))
    if rebase:
        clipped = clipped.select(
            "seq_id",
            "event",
            (F.col("cs") - F.col("ws")).cast("int").alias("start"),
            (F.col("ce") - F.col("ws")).cast("int").alias("end"),
        )
    else:
        clipped = clipped.select(
            "seq_id",
            "event",
            F.col("cs").cast("int").alias("start"),
            F.col("ce").cast("int").alias("end"),
        )
    return clipped


def build_dseq(
    readings: DataFrame,
    *,
    symbolizer,
    seq_len: int,
    overlap: int = 0,
    n_windows: int | None = None,
) -> DataFrame:
    """Full data-transformation phase: readings → D_SEQ DataFrame.

    ``symbolizer`` is a function ``readings -> symbols`` (e.g. a
    partial of :func:`repro.core.symbolize.threshold_symbolize`).
    """
    from .events import to_instances

    symbols = symbolizer(readings)
    instances = to_instances(symbols)
    return split_sequences(
        instances, seq_len=seq_len, overlap=overlap, n_windows=n_windows
    )
