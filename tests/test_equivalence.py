"""Every miner returns the same patterns and supports on any valid D_SEQ.

Generated databases cover the edge cases of DESIGN.md §3: empty
sequences inside the id range, identical intervals, equal starts,
ε > 0, d_o > 1, ``t_max`` and ``max_k`` = 4.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import mine_hdfs
from repro.core.distributed import mine_distributed
from repro.core.htpgm import MiningConfig, mine, mine_variant
from repro.core.seqdb import SequenceDatabase

from .util import pairs_checked

VARIANTS = ("noprune", "apriori", "trans", "all")


@st.composite
def databases(draw):
    """Up to 6 sequences of up to 10 instances of 4 events.  Starts and
    lengths come from small ranges, so equal starts and identical
    intervals are common; a sequence may be empty or miss events, and a
    level has several candidates per prefix and self-pairs."""
    n_seq = draw(st.integers(1, 6))
    rows = set()
    for sid in range(n_seq):
        for _ in range(draw(st.integers(0, 10))):
            start = draw(st.integers(0, 8))
            end = start + draw(st.integers(1, 6))
            rows.add((sid, draw(st.sampled_from("ABCD")), start, end))
    if not rows or max(r[0] for r in rows) < n_seq - 1:
        rows.add((n_seq - 1, "A", 0, 1))  # n_seq = max(seq_id) + 1
    return SequenceDatabase.from_rows(sorted(rows))


configs = st.builds(
    MiningConfig,
    sigma=st.sampled_from([0.2, 0.4, 0.6]),
    delta=st.sampled_from([0.0, 0.3, 0.6]),
    epsilon=st.sampled_from([0, 1, 2]),
    d_o=st.sampled_from([1, 2, 3]),
    t_max=st.sampled_from([None, 4, 8]),
    max_k=st.sampled_from([2, 3, 4]),
)


def _same(got, expected):
    assert got.patterns == expected.patterns
    assert got.frequent_events == expected.frequent_events
    assert got.n_sequences == expected.n_sequences


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(db=databases(), cfg=configs)
def test_driver_variants_and_hdfs_agree(db, cfg):
    """The four pruning variants return H-DFS's patterns and differ only
    in the work pruning saves: admitting fewer candidates checks fewer
    instance pairs, and every kept embedding realizes a kept tuple,
    whose relations are green at L2 (Lemma 6), so all variants keep the
    same embeddings."""
    expected = mine_hdfs(db, cfg)
    runs = {v: mine_variant(db, cfg, v) for v in VARIANTS}
    for r in runs.values():
        _same(r, expected)
    pairs = {v: pairs_checked(r) for v, r in runs.items()}
    assert pairs["all"] <= pairs["trans"] <= pairs["noprune"]
    assert pairs["all"] <= pairs["apriori"] <= pairs["noprune"]
    kept = [
        {k: n for k, n in r.stats.items() if k.startswith("embeddings_kept_l")}
        for r in runs.values()
    ]
    assert all(k == kept[0] for k in kept)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(db=databases(), cfg=configs)
def test_distributed_agrees_with_driver(spark, db, cfg):
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "2")
    try:
        got = mine_distributed(spark, spark.createDataFrame(db.to_pandas()), cfg)
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old)
    _same(got, mine(db, cfg))
