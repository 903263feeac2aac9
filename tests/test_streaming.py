"""Structured Streaming ingestion == batch symbolization."""
import pandas as pd
import pytest

from repro.core.streaming import (
    read_reading_stream,
    run_available_now,
    windowed_symbolize,
)

SLOT = 300  # 5-minute slots


def _write_csv(tmp_path, rows, name="part0.csv"):
    pdf = pd.DataFrame(rows, columns=["var", "ts", "value"])
    pdf["ts"] = pd.to_datetime(pdf["ts"], unit="s")
    (tmp_path / "in").mkdir(exist_ok=True)
    pdf.to_csv(tmp_path / "in" / name, header=False, index=False)
    return str(tmp_path / "in")


def _rows():
    rows = []
    # var x: slot 0 mean 1.0 (On), slot 1 mean 0.01 (Off); three
    # sub-slot readings per slot exercise the windowed average.
    for i in range(3):
        rows.append(("x", i * 100, 1.0))
        rows.append(("x", SLOT + i * 100, 0.01))
        rows.append(("y", i * 100, 0.02))
        rows.append(("y", SLOT + i * 100, 0.5))
    return rows


def test_streaming_windowed_symbolize(spark, tmp_path):
    path = _write_csv(tmp_path, _rows())
    stream = read_reading_stream(spark, path)
    assert stream.isStreaming
    syms = windowed_symbolize(stream, slot_seconds=SLOT, threshold=0.05)
    out = run_available_now(syms, "stream_syms_basic").toPandas()
    got = {
        (r.var, r.t): r.symbol for r in out.itertuples()
    }
    assert got == {
        ("x", 0): "On",
        ("x", 1): "Off",
        ("y", 0): "Off",
        ("y", 1): "On",
    }


def test_streaming_matches_batch(spark, tmp_path):
    path = _write_csv(tmp_path, _rows())
    stream_out = run_available_now(
        windowed_symbolize(
            read_reading_stream(spark, path), slot_seconds=SLOT
        ),
        "stream_syms_cmp",
    ).toPandas()
    pdf = pd.DataFrame(_rows(), columns=["var", "ts", "value"])
    pdf["ts"] = pd.to_datetime(pdf["ts"], unit="s")
    batch_out = windowed_symbolize(
        spark.createDataFrame(pdf), slot_seconds=SLOT
    ).toPandas()
    key = ["var", "t"]
    assert (
        stream_out.sort_values(key).reset_index(drop=True).equals(
            batch_out.sort_values(key).reset_index(drop=True)
        )
    )


def test_streaming_incremental_files(spark, tmp_path):
    """New files appended to the source are picked up on re-drain."""
    path = _write_csv(tmp_path, _rows())
    syms = windowed_symbolize(
        read_reading_stream(spark, path), slot_seconds=SLOT
    )
    first = run_available_now(syms, "stream_syms_inc").toPandas()
    assert len(first) == 4
    _write_csv(
        tmp_path,
        [("z", 2 * SLOT + i * 100, 1.0) for i in range(3)],
        name="part1.csv",
    )
    syms2 = windowed_symbolize(
        read_reading_stream(spark, path), slot_seconds=SLOT
    )
    second = run_available_now(syms2, "stream_syms_inc2").toPandas()
    assert len(second) == 5
    z = second[second["var"] == "z"].iloc[0]
    assert (z["t"], z["symbol"]) == (2, "On")


def test_windowed_symbolize_custom_threshold(spark, tmp_path):
    rows = [("x", i * 100, 0.4) for i in range(3)]
    path = _write_csv(tmp_path, rows)
    out = run_available_now(
        windowed_symbolize(
            read_reading_stream(spark, path),
            slot_seconds=SLOT,
            threshold=0.5,
            on="HI",
            off="LO",
        ),
        "stream_syms_thr",
    ).toPandas()
    assert list(out["symbol"]) == ["LO"]


@pytest.mark.parametrize("timeout_sec", [0, -1, float("nan")])
def test_run_available_now_rejects_bad_timeout(spark, tmp_path, timeout_sec):
    syms = windowed_symbolize(
        read_reading_stream(spark, _write_csv(tmp_path, _rows())), slot_seconds=SLOT
    )
    with pytest.raises(ValueError, match="timeout_sec"):
        run_available_now(syms, "stream_syms_bad_timeout", timeout_sec=timeout_sec)
    assert spark.streams.active == []


def test_run_available_now_releases_view_on_timeout(spark, tmp_path):
    syms = windowed_symbolize(
        read_reading_stream(spark, _write_csv(tmp_path, _rows())), slot_seconds=SLOT
    )
    with pytest.raises(TimeoutError):
        run_available_now(syms, "stream_syms_timeout", timeout_sec=0.001)
    assert "stream_syms_timeout" not in {t.name for t in spark.catalog.listTables()}
    assert spark.streams.active == []
