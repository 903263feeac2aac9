"""Distributed miner == driver miner, and its L1 + L2 partial-support
pass == DuckDB oracle."""
import importlib
import sys
import warnings
import zipfile
import zipimport
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest
from pyspark.errors import PythonException

from repro.core import distributed
from repro.core.collect import arrow_collect
from repro.core.distributed import (
    level12,
    mine_distributed,
    partial_supports,
    partition_sequences,
    sum_partials,
)
from repro.core.htpgm import MiningConfig, mine
from repro.core.relations import RELATIONS, relation_sql
from repro.core.seqdb import SequenceDatabase
from repro.oracle import assert_equivalent

from .util import BAD_ROWS, kitchen_db, random_db


@pytest.fixture(scope="module", autouse=True)
def two_shuffle_partitions(spark):
    """Every pass runs one task per shuffle partition; 2 are plenty for
    DBs of at most 20 sequences (the session default is 64)."""
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "2")
    yield
    spark.conf.set("spark.sql.shuffle.partitions", old)


def _spark_dseq(spark, db):
    return spark.createDataFrame(db.to_pandas())


def _level12(dseq, **params):
    """The L1 + L2 pass, summed over partitions as the miner sums it:
    the sequence count, the event supports and the 2-event supports."""
    cfg = MiningConfig(sigma=0.0, delta=0.0, **params)
    n, supports, pairs = level12(
        arrow_collect(partial_supports(partition_sequences(dseq), cfg))
    )
    return n, supports, sum_partials(*pairs)


def _event_supports(dseq):
    _, supports, _ = _level12(dseq)
    return pd.DataFrame({"event": list(supports), "supp": list(supports.values())})


def _two_event_supports(dseq, **params):
    _, supports, (cand, rels, supp, _) = _level12(dseq, **params)
    events = np.array(sorted(supports), dtype=object)
    a, b = np.divmod(cand, len(events))
    return pd.DataFrame(
        {
            "event_i": events[a],
            "event_j": events[b],
            "rel": np.array(RELATIONS)[rels[:, 0]],
            "supp": supp,
        }
    )


def _sequence_count(dseq):
    n, _, _ = _level12(dseq)
    return pd.DataFrame({"n": [n]})


def test_event_supports_matches_oracle(spark):
    db = random_db(seed=0)
    dseq = _spark_dseq(spark, db)
    assert_equivalent(
        _event_supports(dseq),
        "SELECT event, count(DISTINCT seq_id) AS supp FROM dseq "
        "GROUP BY event",
        dseq=db.to_pandas(),
    )


def test_event_supports_match_bitmaps(spark):
    db = random_db(seed=1)
    got = _event_supports(_spark_dseq(spark, db))
    assert dict(zip(got["event"], got["supp"])) == db.event_supports()


def test_sequence_count_matches_oracle(spark):
    db = random_db(seed=2, n_seq=10)
    pdf = db.to_pandas()
    pdf = pdf[pdf["seq_id"] != 4]  # an empty sequence inside the range
    assert_equivalent(
        _sequence_count(spark.createDataFrame(pdf)),
        "SELECT max(seq_id) + 1 AS n FROM dseq",
        dseq=pdf,
    )


def test_pattern_supports_within_bitmap_and(spark):
    """Lemma 2: a 2-event pattern's support is at most the support of
    its event pair."""
    db = random_db(seed=3)
    got = _two_event_supports(_spark_dseq(spark, db))
    assert len(got)
    for r in got.itertuples():
        assert 0 < r.supp <= db.group_support((r.event_i, r.event_j))


@pytest.mark.parametrize("eps,d_o,t_max", [(0, 1, None), (1, 3, 20)])
def test_two_event_supports_match_oracle(spark, eps, d_o, t_max):
    db = random_db(seed=4, n_seq=10)
    dseq = _spark_dseq(spark, db)
    rel = relation_sql("a.start", 'a."end"', "b.start", 'b."end"', eps, d_o)
    tmax_cond = (
        f'AND b."end" - a.start <= {t_max} ' if t_max is not None else ""
    )
    sql = (
        "SELECT event_i, event_j, rel, count(DISTINCT seq_id) AS supp "
        "FROM ("
        "  SELECT a.seq_id, a.event AS event_i, b.event AS event_j, "
        f"  {rel} AS rel "
        "  FROM dseq a JOIN dseq b ON a.seq_id = b.seq_id "
        "  WHERE (a.start < b.start "
        '     OR (a.start = b.start AND a."end" > b."end") '
        '     OR (a.start = b.start AND a."end" = b."end" '
        "         AND a.event < b.event)) "
        f"  {tmax_cond}"
        ") WHERE rel IS NOT NULL "
        "GROUP BY event_i, event_j, rel"
    )
    got = _two_event_supports(dseq, epsilon=eps, d_o=d_o, t_max=t_max)
    assert_equivalent(got, sql, dseq=db.to_pandas())


def test_two_event_supports_match_driver_enumeration(spark):
    db = random_db(seed=5, n_seq=12)
    r = mine(db, MiningConfig(sigma=0.0, delta=0.0, max_k=2))
    got = {
        (r2.event_i, r2.event_j, r2.rel): r2.supp
        for r2 in _two_event_supports(_spark_dseq(spark, db)).itertuples()
    }
    for ((e1, e2), (rel,)), supp in r.patterns.items():
        assert got[(e1, e2, rel)] == supp


def _assert_same_result(spark, db, cfg):
    expected = mine(db, cfg)
    got = mine_distributed(spark, _spark_dseq(spark, db), cfg)
    assert got.patterns == expected.patterns
    assert got.frequent_events == expected.frequent_events
    assert got.n_sequences == expected.n_sequences
    for key in ("candidates_l2", "candidates_k"):
        assert got.stats[key] == expected.stats[key], key
    levels = [k for k in got.node_counts if k >= 2]
    seconds = {f"seconds_l{k}" for k in levels} | {"seconds_l12_pass"}
    assert seconds <= got.stats.keys()
    # The pass's task time: at L1 + L2, and at each level from 3 on.
    task = {f"task_seconds_l{k}" for k in levels if k > 2} | {"task_seconds_l12_pass"}
    assert task <= got.stats.keys()
    assert all(got.stats[key] >= 0 for key in task)
    # The distributed miner has no bitmaps, so it gates nothing by
    # Lemmas 2/3: it enumerates what the driver does without the gate.
    ungated = mine(db, replace(cfg, prune_apriori=False))
    per_level = [f"enumerated_l{k}" for k in levels]
    assert [got.stats[key] for key in per_level] == [
        ungated.stats[key] for key in per_level
    ]
    assert sum(got.stats[key] for key in per_level) == got.stats["enumerated_nodes"]
    # The driver's counters: equal, but for the pairs the distributed
    # miner checks beyond the driver's, where the L1 + L2 pass tries
    # infrequent event pairs (L2) or a replayed row realizes a tuple
    # that was not kept (L4 on); see the distributed module docstring.
    for k in levels:
        if not got.stats[f"enumerated_l{k}"]:
            continue
        kept, checked = f"embeddings_kept_l{k}", f"pairs_checked_l{k}"
        assert got.stats[kept] == ungated.stats[kept], kept
        if k == 3:
            assert got.stats[checked] == ungated.stats[checked], checked
        else:
            assert got.stats[checked] >= ungated.stats[checked], checked
    return got


@pytest.mark.parametrize("seed,sigma,delta", [(0, 0.3, 0.3), (1, 0.2, 0.5)])
def test_mine_distributed_equals_driver(spark, seed, sigma, delta):
    db = random_db(seed=seed, n_seq=14, n_vars=4)
    _assert_same_result(spark, db, MiningConfig(sigma=sigma, delta=delta, max_k=3))


@pytest.mark.parametrize(
    "seed,max_k", [(2, 4), (3, 4), (3, 5)], ids=["2", "3", "3-k5"]
)
def test_mine_distributed_equals_driver_at_k4(spark, seed, max_k):
    """Level k replays the kept embeddings of levels 2..k-1 per
    sequence."""
    db = random_db(seed=seed, n_seq=14, n_vars=4)
    got = _assert_same_result(
        spark, db, MiningConfig(sigma=0.2, delta=0.2, max_k=max_k)
    )
    assert got.node_counts.get(max_k, 0) > 0


def test_mine_distributed_more_partitions_than_sequences(spark):
    db = random_db(seed=6, n_seq=5, n_vars=4)
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "16")
    try:
        _assert_same_result(
            spark, db, MiningConfig(sigma=0.2, delta=0.2, max_k=4)
        )
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old)


def test_mine_distributed_counts_empty_sequences(spark):
    """n is max(seq_id) + 1, as in the driver, not the distinct count."""
    rows = [(0, "A", 0, 1), (0, "B", 2, 3), (2, "A", 0, 1), (2, "B", 2, 3)]
    db = SequenceDatabase.from_rows(rows)
    got = _assert_same_result(spark, db, MiningConfig(sigma=0.7, delta=0.5))
    assert got.n_sequences == 3
    assert got.patterns == {}


def _persisted(spark):
    return spark.sparkContext._jsc.getPersistentRDDs().size()


def test_mine_distributed_unpersists(spark, monkeypatch):
    db = random_db(seed=0, n_seq=6)
    cfg = MiningConfig(sigma=0.3, delta=0.3)
    dseq = _spark_dseq(spark, db)
    before = _persisted(spark)
    mine_distributed(spark, dseq, cfg)
    assert _persisted(spark) == before

    def fail(*args):
        raise RuntimeError("boom")

    # fails on the driver after the first pass has filled the cache
    monkeypatch.setattr(distributed, "mine_levels", fail)
    with pytest.raises(RuntimeError, match="boom"):
        mine_distributed(spark, dseq, cfg)
    assert _persisted(spark) == before


@pytest.mark.parametrize("rows,message", BAD_ROWS)
def test_mine_distributed_rejects_bad_rows(spark, rows, message):
    """The executor's ValueError reaches the driver once, inside Spark's
    PythonException, with no warning that repeats its traceback; the
    cached partitions are released all the same."""
    pdf = pd.DataFrame(rows, columns=["seq_id", "event", "start", "end"])
    # Inferred types: a fractional or null start/end reaches the miner
    # in a double column, as a long column would truncate 1.5 to 1.
    dseq = spark.createDataFrame(pdf)
    before = _persisted(spark)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(PythonException, match=message):
            mine_distributed(spark, dseq, MiningConfig(sigma=0.5, delta=0.5))
    assert not [w for w in caught if "reached the error below" in str(w.message)]
    assert _persisted(spark) == before


@pytest.mark.parametrize("caller", [None, "caller's job"])
def test_mine_distributed_describes_its_jobs(spark, monkeypatch, caller):
    """Each pass's jobs carry the pass's description; the caller's
    description is back after a run that succeeds and one that raises,
    and the job group is untouched."""
    sc = spark.sparkContext
    seen = []
    collect = distributed.arrow_collect

    def spy(df):
        seen.append(sc.getLocalProperty("spark.job.description"))
        return collect(df)

    monkeypatch.setattr(distributed, "arrow_collect", spy)
    cfg = MiningConfig(sigma=0.5, delta=0.5, max_k=3)
    good = _spark_dseq(spark, kitchen_db())
    bad = spark.createDataFrame(pd.DataFrame(BAD_ROWS[1][0], columns=good.columns))
    sc.setJobGroup("caller-group", "caller's group")
    sc.setLocalProperty("spark.job.description", caller)
    try:
        mine_distributed(spark, good, cfg)
        assert seen == ["distributed.l12", "distributed.l3"]
        assert sc.getLocalProperty("spark.job.description") == caller
        with pytest.raises(PythonException):
            mine_distributed(spark, bad, cfg)
        assert seen[-1] == "distributed.l12"
        assert sc.getLocalProperty("spark.job.description") == caller
        assert sc.getLocalProperty("spark.jobGroup.id") == "caller-group"
    finally:
        sc.setLocalProperty("spark.job.description", None)
        sc.setLocalProperty("spark.jobGroup.id", None)


def test_mine_distributed_kitchen(spark):
    db = kitchen_db()
    cfg = MiningConfig(sigma=0.8, delta=0.8, max_k=3)
    got = mine_distributed(spark, _spark_dseq(spark, db), cfg)
    assert got.patterns[(("K", "T", "M"), ("C", "F", "F"))] == 4


def test_mine_distributed_with_relation_params(spark):
    db = random_db(seed=7, n_seq=10)
    cfg = MiningConfig(
        sigma=0.25, delta=0.25, max_k=3, epsilon=1, d_o=3, t_max=25
    )
    _assert_same_result(spark, db, cfg)


def test_mine_distributed_empty(spark):
    pdf = pd.DataFrame(
        {"seq_id": [0], "event": ["A"], "start": [0], "end": [1]}
    )
    cfg = MiningConfig(sigma=1.0, delta=1.0, max_k=3)
    got = mine_distributed(spark, spark.createDataFrame(pdf), cfg)
    assert got.frequent_events == {"A": 1}
    assert got.patterns == {}


def _zip_importers():
    return {
        path: finder.prefix
        for path, finder in sys.path_importer_cache.items()
        if isinstance(finder, zipimport.zipimporter)
    }


def test_drop_subpackage_zip_importers(tmp_path, monkeypatch):
    """The pass's worker trim, without Spark: importing a subpackage
    from a zip on ``sys.path`` caches one importer per package path;
    the trim drops those and keeps the archive's own importer and every
    other finder, and later imports from the archive, a rewritten one
    included, still resolve."""
    archive = str(tmp_path / "lib.zip")

    def write(*modules):
        with zipfile.ZipFile(archive, "w") as z:
            for name in ("zpkg/__init__.py", "zpkg/sub/__init__.py", *modules):
                z.writestr(name, f"NAME = {name!r}\n")

    write("zpkg/sub/a.py", "zpkg/sub/b.py")
    monkeypatch.syspath_prepend(archive)  # sys.path is restored at teardown
    try:
        assert importlib.import_module("zpkg.sub.a").NAME == "zpkg/sub/a.py"
        mine = {p: x for p, x in _zip_importers().items() if p.startswith(archive)}
        assert sorted(mine.values()) == ["", "zpkg/", "zpkg/sub/"]
        others = {
            path: finder
            for path, finder in sys.path_importer_cache.items()
            if not isinstance(finder, zipimport.zipimporter)
        }
        assert others

        distributed._drop_subpackage_zip_importers()
        assert not [x for x in _zip_importers().values() if x]
        assert _zip_importers()[archive] == ""
        assert all(sys.path_importer_cache.get(p) is f for p, f in others.items())

        importlib.invalidate_caches()
        assert importlib.import_module("zpkg.sub.b").NAME == "zpkg/sub/b.py"

        distributed._drop_subpackage_zip_importers()
        write("zpkg/sub/a.py", "zpkg/sub/b.py", "zpkg/sub/c.py")
        importlib.invalidate_caches()
        assert importlib.import_module("zpkg.sub.c").NAME == "zpkg/sub/c.py"
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "zpkg"]:
            del sys.modules[name]
        for path in [p for p in sys.path_importer_cache if p.startswith(archive)]:
            del sys.path_importer_cache[path]
        zipimport._zip_directory_cache.pop(archive, None)
