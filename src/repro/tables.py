"""Harnesses reproducing the evaluation tables (paper §VI).

Each ``tableN`` function computes the reproduction's numbers in the same
layout the paper reports, alongside the paper's values from
:mod:`repro.paper_numbers` where they exist, and returns a tidy pandas
DataFrame.  The ``jobs/tableN_*.py`` entrypoints print them; the
benchmarks wrap representative cells.

Scale note: datasets are the *-lite synthetic counterparts (DESIGN.md
§4), so absolute values differ from the paper by construction — the
comparison is about shape: which method wins, how counts/runtimes move
across the (sigma, delta) grid, how accuracy moves with mu.
"""
from __future__ import annotations

import gc
import math
import statistics
from typing import Callable

import pandas as pd
from pyspark.sql import SparkSession

from . import paper_numbers, synth_data
from .baselines import mine_hdfs, mine_ieminer, mine_tpminer
from .core import mi as mi_mod
from .core.ahtpgm import CorrelationGraph, accuracy, mine_approx
from .core.htpgm import MiningConfig, mine, mine_variant
from .core.model import MiningResult, format_pattern
from .core.pipeline import Dataset, load_dataset
from .metrics import peak_memory_call, time_call

#: Table V grid (percent).
GRID_SD = (20, 40, 60, 80)
#: Tables VII/VIII/IX support & confidence grid (percent).
GRID_RT = (20, 50, 80)
#: A-HTPGM graph densities for Tables VII/VIII (percent).
DENSITIES_RT = (80, 60, 40, 20)
#: Correlation thresholds (as densities) for Table IX (percent).
DENSITIES_ACC = (40, 60, 80, 90)

#: Default lite scales (number of day-sequences) per table.
N_SEQ_COUNTS = 48
N_SEQ_PERF = 32
MAX_K = 3
#: Timed runs per variant and cell of the pruning ablation; with one run
#: each, two back-to-back runs moved its speedups by up to 0.5x.
ABLATION_REPEATS = 3


def _cfg(supp_pct: int, conf_pct: int, **kw) -> MiningConfig:
    kw.setdefault("max_k", MAX_K)
    return MiningConfig(sigma=supp_pct / 100, delta=conf_pct / 100, **kw)


def _graphs(ds: Dataset) -> dict[int, CorrelationGraph]:
    """Correlation graphs for every density the tables use."""
    nmi = mi_mod.nmi_matrix(ds.symbols)
    densities = sorted(set(DENSITIES_RT) | set(DENSITIES_ACC))
    return {
        d: CorrelationGraph.from_nmi(nmi, density=d / 100) for d in densities
    }


def methods_for(
    ds: Dataset, graphs: dict[int, CorrelationGraph]
) -> dict[str, Callable[[MiningConfig], MiningResult]]:
    """The 8 compared methods of Tables VII/VIII, name -> runner."""
    out: dict[str, Callable[[MiningConfig], MiningResult]] = {
        "H-DFS": lambda cfg: mine_hdfs(ds.db, cfg),
        "IEMiner": lambda cfg: mine_ieminer(ds.db, cfg),
        "TPMiner": lambda cfg: mine_tpminer(ds.db, cfg),
        "E-HTPGM": lambda cfg: mine(ds.db, cfg),
    }
    for d in DENSITIES_RT:
        out[f"A-HTPGM ({d}%)"] = (
            lambda cfg, g=graphs[d]: mine_approx(ds.db, g, cfg)
        )
    return out


# ---------------------------------------------------------------------------
# Table IV — dataset characteristics
# ---------------------------------------------------------------------------

def table4(spark: SparkSession, *, n_seq: int | None = None) -> pd.DataFrame:
    """Dataset characteristics: ours vs the paper's (Table IV)."""
    rows = []
    for name in synth_data.dataset_names():
        ds = load_dataset(spark, name, n_seq=n_seq)
        n_vars = ds.symbols.select("var").distinct().count()
        paper = paper_numbers.TABLE4[name]
        rows.append(
            {
                "dataset": name,
                "n_seq": ds.db.n_seq,
                "n_vars": n_vars,
                "n_events": len(ds.db.events),
                "avg_inst": round(ds.db.avg_instances_per_sequence(), 1),
                "paper_n_seq": paper["n_seq"],
                "paper_n_vars": paper["n_vars"],
                "paper_n_events": paper["n_events"],
                "paper_avg_inst": paper["avg_inst"],
            }
        )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table V — number of extracted patterns over the (sigma, delta) grid
# ---------------------------------------------------------------------------

def table5(
    spark: SparkSession,
    *,
    datasets: list[str] | None = None,
    n_seq: int = N_SEQ_COUNTS,
) -> pd.DataFrame:
    """Pattern counts on the {20,40,60,80}^2 grid per dataset.

    Mined once per dataset at the loosest cell and post-filtered
    (sound: support and confidence of a pattern are threshold-free
    quantities; regression-tested against direct re-mining).
    """
    datasets = datasets or synth_data.dataset_names()
    rows = []
    for name in datasets:
        ds = load_dataset(spark, name, n_seq=n_seq)
        loose = mine(ds.db, _cfg(min(GRID_SD), min(GRID_SD)))
        for s in GRID_SD:
            for c in GRID_SD:
                rows.append(
                    {
                        "dataset": name,
                        "support_pct": s,
                        "conf_pct": c,
                        "patterns": len(loose.filtered(s / 100, c / 100)),
                        "paper_patterns": paper_numbers.TABLE5[name][s][c],
                    }
                )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table VI — interesting patterns (qualitative)
# ---------------------------------------------------------------------------

def table6(
    spark: SparkSession,
    *,
    datasets: list[str] | None = None,
    n_seq: int = N_SEQ_COUNTS,
    top: int = 6,
) -> pd.DataFrame:
    """A qualitative sample of mined patterns with support/confidence.

    Mirrors the paper's Table VI reading: multi-event patterns inside
    correlated groups (energy) and weather -> collision patterns
    (smart city), reported with their supp%% / conf%%.  Selection: the
    highest-confidence patterns of the largest size mined at a low
    support threshold, skipping pure-Off patterns (always-on base
    states are trivially confident).
    """
    datasets = datasets or ["nist", "smartcity"]
    rows = []
    for name in datasets:
        ds = load_dataset(spark, name, n_seq=n_seq)
        r = mine(ds.db, _cfg(10, 20))
        # The paper's smart-city showcase (P12-P17) is the weather ->
        # collision association; surface those patterns first.
        focus = "" if synth_data.is_energy(name) else "injury"
        interesting = []
        for key, supp in r.patterns.items():
            events = key[0]
            # cross-variable patterns with at least one active state —
            # the kind Table VI showcases (device interactions, weather
            # -> collision associations); base-state-only or
            # single-variable patterns are trivially frequent.
            variables = {e.rsplit(":", 1)[0] for e in events}
            active = [
                e
                for e in events
                if not e.endswith(":Off") and not e.endswith(":none")
            ]
            if len(variables) < 2 or len(active) < 2:
                continue
            # score 2: severe-state pattern touching a collision var
            # (the paper's "rare but confident" P12-P17 showcase);
            # score 1: any collision-var pattern; 0: the rest.
            focused = 0
            if focus and any(focus in v for v in variables):
                focused = 1 + int(
                    any(e.endswith((":high", ":extreme")) for e in events)
                )
            interesting.append(
                (focused, len(events), r.confidence(key), supp, key)
            )
        interesting.sort(key=lambda x: (-x[0], -x[1], -x[2], -x[3]))
        interesting = [item[1:] for item in interesting]
        for size, conf, supp, key in interesting[:top]:
            rows.append(
                {
                    "dataset": name,
                    "pattern": format_pattern(key),
                    "supp_pct": round(100 * supp / r.n_sequences, 1),
                    "conf_pct": round(100 * conf, 1),
                }
            )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Tables VII & VIII — runtime and memory comparison
# ---------------------------------------------------------------------------

def _perf_table(
    spark: SparkSession,
    *,
    measure: str,
    datasets: tuple[str, ...],
    n_seq: int,
    paper_table: dict,
    supports: tuple[int, ...] = GRID_RT,
    confidences: tuple[int, ...] = GRID_RT,
) -> pd.DataFrame:
    meter = time_call if measure == "seconds" else peak_memory_call
    rows = []
    for name in datasets:
        ds = load_dataset(spark, name, n_seq=n_seq)
        graphs = _graphs(ds)
        methods = methods_for(ds, graphs)
        for s in supports:
            for method, runner in methods.items():
                for c in confidences:
                    cfg = _cfg(s, c)
                    _, value = meter(lambda: runner(cfg))
                    paper_val = paper_table[s][method][name][c]
                    rows.append(
                        {
                            "dataset": name,
                            "support_pct": s,
                            "conf_pct": c,
                            "method": method,
                            measure: round(value, 3),
                            f"paper_{measure}": paper_val,
                        }
                    )
    return pd.DataFrame(rows)


def table7(
    spark: SparkSession,
    *,
    datasets: tuple[str, ...] = ("nist", "smartcity"),
    n_seq: int = N_SEQ_PERF,
    supports: tuple[int, ...] = GRID_RT,
    confidences: tuple[int, ...] = GRID_RT,
) -> pd.DataFrame:
    """Runtime comparison (paper Table VII), seconds."""
    return _perf_table(
        spark,
        measure="seconds",
        datasets=datasets,
        n_seq=n_seq,
        paper_table=paper_numbers.TABLE7,
        supports=supports,
        confidences=confidences,
    )


def table8(
    spark: SparkSession,
    *,
    datasets: tuple[str, ...] = ("nist", "smartcity"),
    n_seq: int = N_SEQ_PERF,
    supports: tuple[int, ...] = GRID_RT,
    confidences: tuple[int, ...] = GRID_RT,
) -> pd.DataFrame:
    """Peak-memory comparison (paper Table VIII), MiB."""
    return _perf_table(
        spark,
        measure="mib",
        datasets=datasets,
        n_seq=n_seq,
        paper_table=paper_numbers.TABLE8,
        supports=supports,
        confidences=confidences,
    )


# ---------------------------------------------------------------------------
# Table IX — accuracy of A-HTPGM
# ---------------------------------------------------------------------------

def table9(
    spark: SparkSession,
    *,
    datasets: tuple[str, ...] = ("nist", "smartcity"),
    n_seq: int = N_SEQ_COUNTS,
) -> pd.DataFrame:
    """A-HTPGM accuracy vs E-HTPGM over the mu x (sigma, delta) grid.

    Mines each method once at the loosest thresholds and post-filters
    the grid (supports are threshold-independent; see table5).
    """
    lo = min(GRID_RT)
    rows = []
    for name in datasets:
        ds = load_dataset(spark, name, n_seq=n_seq)
        graphs = _graphs(ds)
        exact = mine(ds.db, _cfg(lo, lo))
        approx = {
            d: mine_approx(ds.db, graphs[d], _cfg(lo, lo))
            for d in DENSITIES_ACC
        }
        for s in GRID_RT:
            for d in DENSITIES_ACC:
                for c in GRID_RT:
                    e_set = set(exact.filtered(s / 100, c / 100))
                    a_set = set(approx[d].filtered(s / 100, c / 100))
                    acc = (
                        100.0
                        if not e_set
                        else 100 * len(a_set & e_set) / len(e_set)
                    )
                    rows.append(
                        {
                            "dataset": name,
                            "support_pct": s,
                            "mu_pct": d,
                            "conf_pct": c,
                            "accuracy_pct": round(acc, 1),
                            "paper_accuracy_pct": paper_numbers.TABLE9[s][d][
                                name
                            ][c],
                        }
                    )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Pruning ablation (the Figs. 6-7 numbers; figures themselves are out
# of scope, the table of runtimes is what the benchmark regenerates)
# ---------------------------------------------------------------------------

def pruning_ablation(
    spark: SparkSession,
    *,
    datasets: tuple[str, ...] = ("nist", "smartcity"),
    n_seq: int = N_SEQ_PERF,
    grid: tuple[tuple[int, int], ...] = ((20, 20), (50, 50), (80, 80)),
) -> pd.DataFrame:
    """Runtimes of the four pruning variants of E-HTPGM: per cell, the
    median of ``ABLATION_REPEATS`` timed runs of each variant.  The runs
    go in rounds over all four variants, so a change in machine load
    falls on each of them alike, and each starts after a full garbage
    collection.  A variant's speedup is the median over rounds of
    NoPrune's time divided by the variant's time in the same round, so
    load that shifts a whole round cancels out."""
    rows = []
    for name in datasets:
        ds = load_dataset(spark, name, n_seq=n_seq)
        for s, c in grid:
            runs: dict[str, list[float]] = {
                v: [] for v in ("noprune", "apriori", "trans", "all")
            }
            for _ in range(ABLATION_REPEATS):
                for variant, times in runs.items():
                    gc.collect()  # no earlier run's garbage is collected in this one
                    times.append(
                        time_call(lambda: mine_variant(ds.db, _cfg(s, c), variant))[1]
                    )
            for variant, times in runs.items():
                ratios = [
                    base / secs if secs > 0 else math.inf
                    for base, secs in zip(runs["noprune"], times)
                ]
                rows.append(
                    {
                        "dataset": name,
                        "support_pct": s,
                        "conf_pct": c,
                        "variant": variant,
                        "seconds": round(statistics.median(times), 3),
                        "speedup_vs_noprune": round(statistics.median(ratios), 2),
                    }
                )
    return pd.DataFrame(rows)


def format_table(df: pd.DataFrame, title: str) -> str:
    """Markdown-ish rendering used by the jobs and EXPERIMENTS.md.

    (``DataFrame.to_markdown`` needs tabulate, which this offline
    container lacks; a pipe-separated rendering is built by hand.)
    """
    cols = list(df.columns)
    lines = [
        "| " + " | ".join(str(c) for c in cols) + " |",
        "|" + "|".join("---" for _ in cols) + "|",
    ]
    for _, row in df.iterrows():
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return f"## {title}\n\n" + "\n".join(lines) + "\n"
