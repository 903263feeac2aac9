"""Result-equality of the baselines with E-HTPGM, plus structure tests.

The paper states all methods are exact and compares them only on
performance; these tests pin that exactness down.
"""
import pytest

from repro.baselines import mine_hdfs, mine_ieminer, mine_tpminer
from repro.baselines.tpminer import endpoint_representation
from repro.core.htpgm import MiningConfig, mine
from repro.core.seqdb import SequenceDatabase

from .util import kitchen_db, random_db

BASELINES = {
    "hdfs": mine_hdfs,
    "ieminer": mine_ieminer,
    "tpminer": mine_tpminer,
}


def cfg(sigma=0.3, delta=0.3, **kw):
    kw.setdefault("max_k", 3)
    return MiningConfig(sigma=sigma, delta=delta, **kw)


@pytest.mark.parametrize("name", BASELINES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_baseline_equals_htpgm_random(name, seed):
    db = random_db(seed=seed, n_seq=14, n_vars=4)
    c = cfg()
    expected = mine(db, c)
    got = BASELINES[name](db, c)
    assert got.patterns == expected.patterns
    assert got.frequent_events == expected.frequent_events


@pytest.mark.parametrize("name", BASELINES)
@pytest.mark.parametrize("sigma,delta", [(0.2, 0.2), (0.5, 0.5), (0.8, 0.6)])
def test_baseline_equals_htpgm_kitchen(name, sigma, delta):
    db = kitchen_db()
    c = cfg(sigma=sigma, delta=delta)
    assert BASELINES[name](db, c).patterns == mine(db, c).patterns


@pytest.mark.parametrize("name", BASELINES)
def test_baseline_with_tmax_and_epsilon(name):
    db = random_db(seed=6, n_seq=12, n_vars=4)
    c = cfg(sigma=0.25, delta=0.25, epsilon=1, d_o=3, t_max=20)
    assert BASELINES[name](db, c).patterns == mine(db, c).patterns


@pytest.mark.parametrize("name", BASELINES)
def test_baseline_max_k_two(name):
    db = random_db(seed=2)
    c = cfg(sigma=0.3, delta=0.3, max_k=2)
    got = BASELINES[name](db, c)
    assert all(len(k[0]) == 2 for k in got.patterns)
    assert got.patterns == mine(db, c).patterns


@pytest.mark.parametrize("name", BASELINES)
def test_baseline_empty_db(name):
    db = SequenceDatabase.from_rows([], n_seq=4)
    got = BASELINES[name](db, cfg())
    assert got.patterns == {}
    assert got.frequent_events == {}


def test_endpoint_representation_sorted_pairs():
    db = kitchen_db()
    pts = endpoint_representation(db)
    assert len(pts) == db.n_seq
    for seq_pts in pts:
        times = [p[0] for p in seq_pts]
        assert times == sorted(times)
        starts = sum(1 for p in seq_pts if p[1] == 1)
        ends = sum(1 for p in seq_pts if p[1] == -1)
        assert starts == ends


def test_tpminer_prefilter_counts_work_saved():
    db = random_db(seed=8, n_seq=20, n_vars=5)
    c = cfg(sigma=0.5, delta=0.2)
    got = mine_tpminer(db, c)
    assert got.stats["prefiltered"] > 0


def test_hdfs_tracks_embeddings():
    db = kitchen_db()
    got = mine_hdfs(db, cfg(sigma=0.6, delta=0.6))
    assert got.stats["embeddings"] > 0


def test_ieminer_rescans_whole_database():
    db = random_db(seed=1, n_seq=10, n_vars=3)
    c = cfg(sigma=0.3, delta=0.3)
    iem = mine_ieminer(db, c)
    tpm = mine_tpminer(db, c)
    # IEMiner scans all sequences per candidate; TPMiner only the
    # co-occurrence intersection.
    assert iem.stats["sequence_scans"] > tpm.stats["sequence_scans"]


def test_htpgm_scans_fewer_sequences_than_scan_based_baselines():
    # IEMiner and TPMiner rescan sequences for every candidate they
    # count; E-HTPGM extends stored embeddings and, pruned by Lemmas
    # 2-7, counts fewer candidates (its enumerated HPG nodes).
    db = random_db(seed=10, n_seq=24, n_vars=5)
    c = cfg(sigma=0.3, delta=0.5)
    e = mine(db, c)
    for name in ("ieminer", "tpminer"):
        b = BASELINES[name](db, c)
        assert e.stats["enumerated_nodes"] < b.stats["candidates"], name
