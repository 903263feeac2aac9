"""Tests for the sequence-splitting strategy (paper §IV-B2, Fig. 3)."""
import pandas as pd
import pytest

from repro.core.sequences import build_dseq, split_sequences
from repro.core.symbolize import threshold_symbolize


def split_reference(instances, seq_len, overlap, n_windows):
    """Plain-Python reference implementation of the splitting strategy."""
    stride = seq_len - overlap
    out = set()
    for var, symbol, s, e in instances:
        for w in range(n_windows):
            ws = w * stride
            cs, ce = max(s, ws), min(e, ws + seq_len)
            if ce > cs:
                out.add((w, f"{var}:{symbol}", cs - ws, ce - ws))
    return out


def _spark_instances(spark, rows):
    return spark.createDataFrame(
        pd.DataFrame(rows, columns=["var", "symbol", "start", "end"])
    )


CASES = [
    # (rows, seq_len, overlap, n_windows)
    ([("x", "On", 0, 5), ("x", "Off", 5, 20)], 10, 0, 2),
    ([("x", "On", 3, 17)], 10, 0, 2),
    ([("x", "On", 3, 17), ("y", "On", 8, 12)], 10, 5, 3),
    ([("x", "On", 0, 30)], 10, 2, 3),
    ([("x", "On", 9, 10), ("y", "Off", 19, 20)], 10, 9, 11),
]


@pytest.mark.parametrize("rows,seq_len,overlap,n_windows", CASES)
def test_split_matches_reference(spark, rows, seq_len, overlap, n_windows):
    df = _spark_instances(spark, rows)
    got = split_sequences(
        df, seq_len=seq_len, overlap=overlap, n_windows=n_windows
    ).toPandas()
    got_set = set(got.itertuples(index=False, name=None))
    assert got_set == split_reference(rows, seq_len, overlap, n_windows)


def test_split_default_window_count(spark):
    df = _spark_instances(spark, [("x", "On", 0, 36)])
    out = split_sequences(df, seq_len=9).toPandas()
    assert sorted(out["seq_id"]) == [0, 1, 2, 3]
    assert all(out["start"] == 0)
    assert all(out["end"] == 9)


def test_split_no_rebase_keeps_absolute_times(spark):
    df = _spark_instances(spark, [("x", "On", 3, 17)])
    out = split_sequences(
        df, seq_len=10, overlap=0, n_windows=2, rebase=False
    ).toPandas()
    by_seq = {r.seq_id: (r.start, r.end) for r in out.itertuples()}
    assert by_seq == {0: (3, 10), 1: (10, 17)}


def test_split_rejects_bad_overlap(spark):
    df = _spark_instances(spark, [("x", "On", 0, 5)])
    with pytest.raises(ValueError):
        split_sequences(df, seq_len=10, overlap=10)
    with pytest.raises(ValueError):
        split_sequences(df, seq_len=10, overlap=-1)


def test_overlap_preserves_boundary_pattern(spark):
    """Fig. 3: a pattern straddling the boundary is lost at overlap=0
    and preserved with an overlapping split."""
    rows = [
        ("K", "On", 6, 8),
        ("T", "On", 8, 10),
        ("M", "On", 11, 13),
        ("C", "On", 13, 15),
    ]
    df = _spark_instances(spark, rows)
    flat = split_sequences(df, seq_len=10, overlap=0, n_windows=2).toPandas()
    # overlap=0: K,T land in seq 0; M,C in seq 1 (T clipped at the edge)
    seq0 = set(flat[flat.seq_id == 0]["event"])
    seq1 = set(flat[flat.seq_id == 1]["event"])
    assert not {"M:On", "C:On"} & seq0
    assert not {"K:On"} & seq1

    lap = split_sequences(df, seq_len=10, overlap=5, n_windows=2).toPandas()
    seq1 = set(lap[lap.seq_id == 1]["event"])
    # the 4 events co-occur in the overlapped window [5, 15)
    assert {"K:On", "T:On", "M:On", "C:On"} <= seq1


def test_build_dseq_end_to_end(spark):
    pdf = pd.DataFrame(
        {
            "var": ["x"] * 8,
            "t": list(range(8)),
            "value": [1, 1, 0, 0, 1, 1, 0, 0],
        }
    )
    out = build_dseq(
        spark.createDataFrame(pdf),
        symbolizer=lambda df: threshold_symbolize(df, threshold=0.5),
        seq_len=4,
        overlap=0,
    ).toPandas()
    got = set(out.itertuples(index=False, name=None))
    assert got == {
        (0, "x:On", 0, 2),
        (0, "x:Off", 2, 4),
        (1, "x:On", 0, 2),
        (1, "x:Off", 2, 4),
    }


@pytest.mark.parametrize("caller", [None, "caller's job"])
def test_n_windows_job_is_described(spark, monkeypatch, caller):
    """The eager ``n_windows`` job runs as ``sequences.n_windows``; the
    caller's description is back after a run that succeeds and one that
    raises, and the job group is untouched."""
    sc = spark.sparkContext
    df = _spark_instances(spark, CASES[0][0])
    seen = []
    collect = type(df).collect

    def spy(self):
        seen.append(sc.getLocalProperty("spark.job.description"))
        if len(seen) > 1:
            raise RuntimeError("collect failed")
        return collect(self)

    monkeypatch.setattr(type(df), "collect", spy)
    sc.setJobGroup("caller-group", "caller's group")
    sc.setLocalProperty("spark.job.description", caller)
    try:
        split_sequences(df, seq_len=10)
        assert seen == ["sequences.n_windows"]
        assert sc.getLocalProperty("spark.job.description") == caller
        with pytest.raises(RuntimeError, match="collect failed"):
            split_sequences(df, seq_len=10)
        assert seen == ["sequences.n_windows"] * 2
        assert sc.getLocalProperty("spark.job.description") == caller
        assert sc.getLocalProperty("spark.jobGroup.id") == "caller-group"
    finally:
        sc.setLocalProperty("spark.job.description", None)
        sc.setLocalProperty("spark.jobGroup.id", None)
