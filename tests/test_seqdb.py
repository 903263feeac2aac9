"""Tests for the SequenceDatabase bitmap substrate."""
import itertools

import numpy as np
import pandas as pd
import pytest

from repro.core import seqdb
from repro.core.seqdb import (
    DSEQ_COLUMNS,
    SequenceDatabase,
    check_dseq_frame,
    check_dseq_row,
)

from .util import BAD_ROWS, kitchen_db, random_db


def test_from_rows_basic():
    db = kitchen_db()
    assert db.n_seq == 5
    assert db.events == ["K", "M", "T"]
    assert db.support("K") == 5
    assert db.support("M") == 4
    assert list(db.bitmaps["M"]) == [True, True, True, True, False]


def test_instances_sorted_by_start_then_longest_first():
    db = SequenceDatabase.from_rows(
        [(0, "A", 5, 8), (0, "A", 0, 3), (0, "A", 5, 12)], n_seq=1
    )
    assert db.sequences[0]["A"] == [(0, 3), (5, 12), (5, 8)]


def test_group_bitmap_and_support():
    db = kitchen_db()
    assert db.group_support(("K", "T")) == 5
    assert db.group_support(("K", "T", "M")) == 4
    np.testing.assert_array_equal(
        db.group_bitmap(("K", "M")), np.array([1, 1, 1, 1, 0], dtype=bool)
    )


@pytest.mark.parametrize("gate_bytes", [seqdb._GATE_BYTES, 1])
def test_group_supports_match_group_support(monkeypatch, gate_bytes):
    """The batched count of nodes given as event ranks equals the
    one-node count, over 70 sequences (bitmaps of 9 packed bytes, the
    last one partial), in one batch and in one batch per node."""
    monkeypatch.setattr(seqdb, "_GATE_BYTES", gate_bytes)
    db = random_db(seed=5, n_seq=70, n_vars=5)
    for k in (2, 3):
        nodes = list(itertools.product(db.events, repeat=k))
        got = db.group_supports(
            [[db.events.index(ev) for ev in node] for node in nodes]
        )
        assert got.tolist() == [db.group_support(node) for node in nodes]
    assert db.group_supports([]).tolist() == []


def test_explicit_n_seq_pads_empty_sequences():
    db = SequenceDatabase.from_rows([(0, "A", 0, 1)], n_seq=3)
    assert db.n_seq == 3
    assert db.support("A") == 1
    assert db.sequences[2] == {}


def test_empty_database():
    db = SequenceDatabase.from_rows([], n_seq=0)
    assert db.n_seq == 0
    assert db.events == []


def test_pandas_round_trip():
    db = random_db(seed=7)
    pdf = db.to_pandas()
    db2 = SequenceDatabase.from_pandas(pdf, n_seq=db.n_seq)
    assert db2.n_seq == db.n_seq
    assert db2.events == db.events
    for a, b in zip(db.sequences, db2.sequences):
        assert a == b


def test_event_supports_matches_pandas_groupby():
    db = random_db(seed=3)
    pdf = db.to_pandas()
    expected = pdf.groupby("event")["seq_id"].nunique().to_dict()
    assert db.event_supports() == expected


def test_avg_instances_per_sequence():
    db = kitchen_db()
    # 4*3 + 2 = 14 instances over 5 sequences
    assert db.avg_instances_per_sequence() == pytest.approx(14 / 5)


def test_from_pandas_requires_columns():
    pdf = pd.DataFrame({"seq_id": [0], "event": ["A"], "start": [0], "end": [2]})
    db = SequenceDatabase.from_pandas(pdf)
    assert db.support("A") == 1


@pytest.mark.parametrize("rows,message", BAD_ROWS)
def test_from_rows_rejects_bad_rows(rows, message):
    """Without the check, seq_id -1 was filed under the last sequence and
    the reversed interval was mined as (A, B) Follow."""
    with pytest.raises(ValueError, match=message):
        SequenceDatabase.from_rows(rows)
    pdf = pd.DataFrame(rows, columns=["seq_id", "event", "start", "end"])
    with pytest.raises(ValueError, match=message):
        SequenceDatabase.from_pandas(pdf)


def test_integral_float_columns_are_accepted():
    """A D_SEQ column that held a null arrives as floats; its integral
    values are read as the integers they are."""
    db = random_db(seed=2)
    pdf = db.to_pandas().astype({c: float for c in ("seq_id", "start", "end")})
    assert SequenceDatabase.from_pandas(pdf, n_seq=db.n_seq).sequences == db.sequences


def test_from_rows_rejects_seq_id_beyond_n_seq():
    with pytest.raises(ValueError, match="not below n_seq"):
        SequenceDatabase.from_rows([(0, "A", 0, 1), (3, "B", 1, 2)], n_seq=2)


@pytest.mark.parametrize(
    "rows",
    [rows for rows, _ in BAD_ROWS]
    + [
        [(0, "A", 0, 1), (None, "B", 2, 3)],
        [(0, "A", 0, 1), (1, "B", None, 3)],
        [(0, "A", 0, 1), (1, "B", 3, 3), (-1, None, 4, 2)],
    ],
)
def test_check_dseq_frame_reports_first_bad_row(rows):
    """The vectorized check raises the row check's error for the first
    row that fails it, as a row-by-row pass over the same frame does."""
    pdf = pd.DataFrame(rows, columns=list(DSEQ_COLUMNS))
    with pytest.raises(ValueError) as expected:
        for row in zip(*(pdf[c].tolist() for c in DSEQ_COLUMNS)):
            check_dseq_row(*row)
    with pytest.raises(ValueError) as got:
        check_dseq_frame(pdf)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("caller", [None, "caller's job"])
def test_from_spark_describes_its_collect(spark, monkeypatch, caller):
    """The D_SEQ collect runs as ``seqdb.collect``; the caller's
    description is back after a run that succeeds and one that raises,
    and the job group is untouched."""
    sc = spark.sparkContext
    db = kitchen_db()
    dseq = spark.createDataFrame(db.to_pandas())
    seen = []
    to_pandas = type(dseq).toPandas

    def spy(df):
        seen.append(sc.getLocalProperty("spark.job.description"))
        if len(seen) > 1:
            raise RuntimeError("collect failed")
        return to_pandas(df)

    monkeypatch.setattr(type(dseq), "toPandas", spy)
    sc.setJobGroup("caller-group", "caller's group")
    sc.setLocalProperty("spark.job.description", caller)
    try:
        assert SequenceDatabase.from_spark(dseq).event_supports() == db.event_supports()
        assert seen == ["seqdb.collect"]
        assert sc.getLocalProperty("spark.job.description") == caller
        with pytest.raises(RuntimeError, match="collect failed"):
            SequenceDatabase.from_spark(dseq)
        assert seen == ["seqdb.collect"] * 2
        assert sc.getLocalProperty("spark.job.description") == caller
        assert sc.getLocalProperty("spark.jobGroup.id") == "caller-group"
    finally:
        sc.setLocalProperty("spark.job.description", None)
        sc.setLocalProperty("spark.jobGroup.id", None)
