"""Benchmark of the HPG level step: A-HTPGM's mining alone, without Spark.

Times ``mine_approx`` on the SmartCity bench dataset at correlation-graph
densities 40% and 60%, σ = δ = 50%, ``max_k`` 3: the shape of the
``city_approx`` ops of ``tpmbench``, whose density-0.6 ops spend most
of their mining in level 3.  The dataset and the correlation graphs are
built once, outside the timer, so a change to ``enumerate.extend`` or
to the level loop shows here without the noise of Spark jobs.
``extra_info`` carries the level-3 work counts, which repeat exactly.

    python -m pytest benchmarks/bench_level_step.py --benchmark-only
"""
import pytest

from repro.core.ahtpgm import mine_approx

from ._bench_util import cfg, dataset, graphs


@pytest.mark.parametrize("density", [40, 60])
def test_level_step(benchmark, spark, density):
    db = dataset(spark, "smartcity").db
    graph = graphs(spark, "smartcity")[density]
    c = cfg(50, 50)
    result = benchmark.pedantic(
        lambda: mine_approx(db, graph, c), rounds=30, warmup_rounds=2
    )
    for key in ("pairs_checked_l3", "bound_pruned_l3"):
        benchmark.extra_info[key] = result.stats.get(key, 0)
    assert result.patterns
