"""Benchmark of the distributed miner's partition passes, without the
streaming drain.

Times ``mine_distributed`` on the NIST bench dataset's D_SEQ (cached),
σ = δ = 50%, ``max_k`` 3, with 2 shuffle partitions as ``tpmbench``
pins them: the shape of the ``stream_distributed`` op's mining, whose
time is mostly the fixed cost of its two Spark jobs and their Python
tasks.  ``extra_info`` carries the medians over rounds of the L1 + L2
pass's wall time and of the seconds the passes' task functions spent
(summed over partitions), so the gap between them, the Spark and
Python worker floor, can be compared; and the node counts, which
repeat exactly.

    python -m pytest benchmarks/bench_distributed_pass.py --benchmark-only
"""
import statistics

import pytest

from repro.core.distributed import mine_distributed

from ._bench_util import cfg, dataset

#: ``stats`` keys whose median over rounds goes to ``extra_info``.
TIMES = ("seconds_l12_pass", "task_seconds_l12_pass", "seconds_l3", "task_seconds_l3")


@pytest.fixture
def two_shuffle_partitions(spark):
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "2")
    yield
    spark.conf.set("spark.sql.shuffle.partitions", old)


def test_distributed_pass(benchmark, spark, two_shuffle_partitions):
    dseq = dataset(spark, "nist").dseq_df.cache()
    dseq.count()
    c = cfg(50, 50)
    results = []

    def run():
        results.append(mine_distributed(spark, dseq, c))
        return results[-1]

    try:
        result = benchmark.pedantic(run, rounds=20, warmup_rounds=2)
    finally:
        dseq.unpersist()
    for key in TIMES:
        benchmark.extra_info[key] = statistics.median(r.stats[key] for r in results)
    benchmark.extra_info["node_counts"] = result.node_counts
    assert result.patterns
