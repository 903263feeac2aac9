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
            t_total = instances.selectExpr("max(`end`)").collect()[0][0] or 0
        n_windows = max(1, (t_total - seq_len) // stride + 1)

    # SQL strings, not Column expressions: Spark parses each in one
    # call, where every Column operator is a round trip to the JVM.
    # Window w intersects [s, e) iff  w*stride < e  and  s < w*stride + seq_len
    windows = instances.selectExpr(
        "var",
        "symbol",
        "`start`",
        "`end`",
        f"CAST(greatest(0, floor((`start` - {seq_len}) / {stride}) + 1) AS BIGINT) AS w_lo",
        f"CAST(least({n_windows - 1}, floor((`end` - 1) / {stride})) AS BIGINT) AS w_hi",
    ).where("w_lo <= w_hi")
    win_start = f"seq_id * {stride}"
    clipped = (
        windows.selectExpr(
            "var", "symbol", "`start`", "`end`", "explode(sequence(w_lo, w_hi)) AS seq_id"
        )
        .selectExpr(
            "seq_id",
            "concat_ws(':', var, symbol) AS event",
            f"greatest(`start`, {win_start}) AS cs",
            f"least(`end`, {win_start} + {seq_len}) AS ce",
            f"{win_start} AS ws",
        )
        .where("ce > cs")
    )
    shift = " - ws" if rebase else ""
    return clipped.selectExpr(
        "CAST(seq_id AS INT) AS seq_id",
        "event",
        f"CAST(cs{shift} AS INT) AS `start`",
        f"CAST(ce{shift} AS INT) AS `end`",
    )


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
