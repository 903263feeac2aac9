"""The two benchmark workloads.

Each workload owns four phases, which ``run.py`` times separately:

* ``generate`` — make the inputs from the seed and write them under the
  run's output directory (untimed, excluded from ``setup_s``);
* ``prepare`` — the program's own preparation until it can serve ops
  (timed: part of ``setup_s``; repeated, the median is reported);
* ``reference`` — expected outputs, computed untimed with independent
  code paths where one exists (H-DFS, pandas joint counts,
  the batch path of the streaming transform);
* ``run_op`` / ``check`` — one timed op, then its untimed check.

Inputs come from :mod:`repro.synth_data`'s fixed dataset shapes.  The
seed permutes the days (and, for the stream batches, jitters the
sub-slot readings), so every seed gives different input bytes but asks
the program for the same mining work: the same symbols, NMI matrix,
correlation graph and pattern set.  Variables keep their names, since
the miner orders events by name and a renaming changes which patterns
it finds.
"""
from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np
import pandas as pd

from repro import synth_data
from repro.baselines import mine_hdfs
from repro.core import ahtpgm, mi
from repro.core.ahtpgm import CorrelationGraph, accuracy, mine_approx
from repro.core.distributed import mine_distributed
from repro.core.events import to_instances
from repro.core.htpgm import MiningConfig, mine
from repro.core.pipeline import CITY_PERCENTILES
from repro.core.seqdb import SequenceDatabase
from repro.core.sequences import split_sequences
from repro.core.streaming import (
    read_reading_stream,
    run_available_now,
    windowed_symbolize,
)
from repro.core.symbolize import percentile_symbolize

#: Slot length of the stream batches (5-minute slots, as in the paper).
SLOT_SECONDS = 300
#: Raw readings per slot in a stream batch.
READINGS_PER_SLOT = 3


def seeded_view(base: pd.DataFrame, slots_per_day: int, rng) -> pd.DataFrame:
    """Permute the whole days of a readings frame.

    Days are whole sequences and every instance is clipped to its day,
    so supports and pattern sets are those of ``base``.
    """
    t = base["t"].to_numpy()
    day, slot = t // slots_per_day, t % slots_per_day
    perm = rng.permutation(int(day.max()) + 1)
    return pd.DataFrame(
        {
            "var": base["var"].to_numpy(),
            "t": perm[day] * slots_per_day + slot,
            "value": base["value"].to_numpy(),
        }
    )


def transform(readings, symbolizer, seq_len: int, tr):
    """symbolize → events → sequences → seqdb, one span per layer.

    The symbols stay cached: the ops compute the NMI matrix from them.
    ``SequenceDatabase.from_pandas``, which ``from_spark`` calls, has a
    span of its own in traced runs (see ``layers.instrument``).
    """
    with tr.span("symbolize"):
        symbols = symbolizer(readings).persist()
        tr.count("symbolize.rows_out", symbols.count())
    with tr.span("events"):
        instances = tr.force(to_instances(symbols), "events.instances_out")
    with tr.span("sequences"):
        dseq = tr.force(
            split_sequences(instances, seq_len=seq_len), "sequences.rows_out"
        )
    with tr.span("seqdb.collect"):
        db = SequenceDatabase.from_spark(dseq)
    return symbols, db


def overlap(got: dict, ref: dict) -> float:
    """Share of the reference patterns found: |got ∩ ref| / |ref|."""
    return len(got.keys() & ref.keys()) / len(ref) if ref else 1.0


def peak_alloc_mib(fn) -> float:
    """Peak Python allocation of ``fn()`` (tracemalloc), in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (1 << 20)
    finally:
        tracemalloc.stop()


def count_mining(tr, res) -> None:
    """The miner's own counters, recorded at the htpgm boundary."""
    for key in ("candidates_l2", "candidates_k", "enumerated_nodes"):
        tr.count(f"htpgm.{key}", res.stats.get(key, 0))
    tr.count(
        "htpgm.green_nodes",
        sum(v for k, v in res.node_counts.items() if k >= 2),
    )
    tr.count("htpgm.patterns", len(res.patterns))


class Workload:
    """The interface ``run.py`` calls; see the module docstring."""

    name: str
    #: op descriptors, served round-robin
    cycle: list
    #: untimed ops run before the timed loop
    warmup_ops: int
    #: σ=δ=0.5 mining of city_approx and stream_distributed
    cfg = MiningConfig(sigma=0.5, delta=0.5, max_k=3)

    def __init__(self, seed: int, scale: dict, out_dir: str):
        self.seed = seed
        self.scale = scale
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed)
        os.makedirs(out_dir, exist_ok=True)

    def readings_per_op(self, op) -> int:
        raise NotImplementedError

    def cost_class(self, op):
        """Ops of one class do the same work; ``readings_per_s`` times
        each op by its class's median latency."""
        return op

    def corrupt_reference(self) -> None:
        """Self-test hook: make every op kind's reference wrong."""
        raise NotImplementedError

    def probe(self, spark, op) -> dict[str, float]:
        """Traced mode only: per-layer figures measured outside the op."""
        return {}


def pandas_nmi(symbols: pd.DataFrame) -> dict[tuple[str, str], float]:
    """Directed NMI(X;Y) = I(X;Y) / H(X) from pandas joint counts."""
    out = {}
    sym = {v: g[["t", "symbol"]] for v, g in symbols.groupby("var")}
    names = sorted(sym)
    for i, vx in enumerate(names):
        for vy in names[i + 1 :]:
            j = sym[vx].merge(sym[vy], on="t", suffixes=("_x", "_y"))
            c = j.groupby(["symbol_x", "symbol_y"]).size().unstack(fill_value=0)
            p = c.to_numpy(dtype=float) / c.to_numpy().sum()
            px, py = p.sum(axis=1), p.sum(axis=0)
            nz = p > 0
            info = float((p[nz] * np.log(p[nz] / np.outer(px, py)[nz])).sum())
            hx = float(-(px[px > 0] * np.log(px[px > 0])).sum())
            hy = float(-(py[py > 0] * np.log(py[py > 0])).sum())
            out[(vx, vy)] = info / hx if hx > 0 else 0.0
            out[(vy, vx)] = info / hy if hy > 0 else 0.0
    return out


class CityApprox(Workload):
    """One full A-HTPGM run per op on a SmartCity-shaped dataset.

    Density rotates 2:1 over {0.4, 0.6}, so the median falls inside
    the 0.4 class, 17 points from the boundary.
    """

    name = "city_approx"
    cycle = [0.4, 0.6, 0.4]
    warmup_ops = 3
    slots = synth_data.slots_per_seq("smartcity")
    symbols = None  # the cached symbolic DataFrame, set by prepare()

    def generate(self):
        base = synth_data.readings_pandas(
            "smartcity", n_seq=self.scale["city_days"]
        )
        pdf = seeded_view(base, self.slots, self.rng)
        self.n_readings = len(pdf)
        self.path = os.path.join(self.out_dir, "readings.parquet")
        pdf.to_parquet(self.path, index=False)

    def prepare(self, spark, tr):
        if self.symbols is not None:
            self.symbols.unpersist()
        labels = synth_data.city_state_labels()
        readings = spark.read.parquet(self.path)
        self.symbols, self.db = transform(
            readings,
            lambda df: percentile_symbolize(df, labels, list(CITY_PERCENTILES)),
            self.slots,
            tr,
        )

    def reference(self, spark):
        self.exact = mine_hdfs(self.db, self.cfg)
        self.nmi_ref = pandas_nmi(self.symbols.toPandas())
        nmi = mi.nmi_matrix(self.symbols)
        self.acc_ref = {}
        for d in sorted(set(self.cycle)):
            graph = CorrelationGraph.from_nmi(nmi, density=d)
            self.acc_ref[d] = accuracy(mine_approx(self.db, graph, self.cfg), self.exact)

    def corrupt_reference(self):
        for d in self.acc_ref:
            self.acc_ref[d] += 0.01

    def run_op(self, spark, tr, op, i):
        with tr.span("mi.nmi"):
            nmi = mi.nmi_matrix(self.symbols)
        with tr.span("ahtpgm.graph"):
            graph = CorrelationGraph.from_nmi(nmi, density=op)
        with tr.span("ahtpgm.mine"):
            res = mine_approx(self.db, graph, self.cfg)
        tr.count("mi.pairs", len(nmi) // 2)
        tr.count("ahtpgm.edges", len(graph.edges))
        tr.count("ahtpgm.vars_kept", len(graph.variables))
        tr.count(
            "ahtpgm.events_kept",
            sum(ahtpgm.event_var(e) in graph.variables for e in self.db.bitmaps),
        )
        count_mining(tr, res)
        return nmi, res

    def check(self, op, out):
        nmi, res = out
        got = {k: float(v) for k, v in nmi["nmi"].items()}
        if set(got) != set(self.nmi_ref):
            return False, 0.0
        if any(abs(got[k] - self.nmi_ref[k]) > 1e-9 for k in got):
            return False, 0.0
        exact = self.exact.patterns
        if any(exact.get(k) != s for k, s in res.patterns.items()):
            return False, 0.0
        acc = accuracy(res, self.exact)
        return acc == self.acc_ref[op], acc

    def readings_per_op(self, op):
        return self.n_readings

    def probe(self, spark, op):
        graph = CorrelationGraph.from_nmi(mi.nmi_matrix(self.symbols), density=op)
        return {
            "htpgm.peak_alloc_mib": peak_alloc_mib(
                lambda: mine_approx(self.db, graph, self.cfg)
            )
        }


class StreamDistributed(Workload):
    """Drain a fresh raw-reading batch and mine it with the distributed
    miner.  Three batches rotate; each is a different seeded view of the
    same NIST-shaped days, so they differ in content but not in cost."""

    name = "stream_distributed"
    cycle = [0, 1, 2]
    warmup_ops = 2
    slots = synth_data.slots_per_seq("nist")

    def generate(self):
        base = synth_data.readings_pandas("nist", n_seq=self.scale["stream_days"])
        self.batches = []
        for j in self.cycle:
            view = seeded_view(base, self.slots, self.rng)
            reps = READINGS_PER_SLOT
            rows = view.loc[view.index.repeat(reps)].reset_index(drop=True)
            sub = np.tile(np.arange(reps) * (SLOT_SECONDS // reps), len(view))
            rows["ts"] = pd.to_datetime(
                rows["t"].to_numpy() * SLOT_SECONDS + sub, unit="s"
            )
            # ±10% jitter keeps On readings (>= 0.1) and Off readings
            # (|N(0, 0.01)|) on their side of the 0.05 threshold, so the
            # seed does not change the symbols
            rows["value"] *= self.rng.uniform(0.9, 1.1, len(rows))
            rows = rows[["var", "ts", "value"]]
            path = os.path.join(self.out_dir, f"batch{j}")
            os.makedirs(path, exist_ok=True)
            rows.to_csv(os.path.join(path, "part-0.csv"), header=False, index=False)
            self.batches.append((path, rows))

    def prepare(self, spark, tr):
        """Nothing to prepare: every op builds its own database."""

    def batch_path(self, spark, op):
        """Symbols and database of batch ``op`` through the batch path."""
        syms = windowed_symbolize(
            spark.createDataFrame(self.batches[op][1]), slot_seconds=SLOT_SECONDS
        )
        dseq = split_sequences(to_instances(syms), seq_len=self.slots)
        return syms, SequenceDatabase.from_spark(dseq)

    def reference(self, spark):
        self.sym_ref, self.pat_ref = [], []
        for op in self.cycle:
            syms, db = self.batch_path(spark, op)
            self.sym_ref.append(_sorted_symbols(syms.toPandas()))
            self.pat_ref.append(mine(db, self.cfg).patterns)

    def corrupt_reference(self):
        for ref in self.pat_ref:
            ref[next(iter(ref))] += 1

    def run_op(self, spark, tr, op, i):
        query = f"stream_op{i}"
        with tr.span("streaming.drain"):
            stream = read_reading_stream(spark, self.batches[op][0])
            table = run_available_now(
                windowed_symbolize(stream, slot_seconds=SLOT_SECONDS), query
            )
            table = tr.force(table, "streaming.rows_out")
        with tr.span("events"):
            instances = tr.force(to_instances(table), "events.instances_out")
        with tr.span("sequences"):
            dseq = tr.force(
                split_sequences(instances, seq_len=self.slots), "sequences.rows_out"
            )
        with tr.span("distributed.mine"):
            res = mine_distributed(spark, dseq, self.cfg)
        tr.count("distributed.nodes_l2", res.node_counts.get(2, 0))
        tr.count("distributed.nodes_l3", res.node_counts.get(3, 0))
        return query, table, res

    def check(self, op, out):
        query, table, res = out
        try:
            ok_syms = _sorted_symbols(table.toPandas()).equals(self.sym_ref[op])
        finally:
            table.sparkSession.catalog.dropTempView(query)
        ref = self.pat_ref[op]
        return ok_syms and res.patterns == ref, overlap(res.patterns, ref)

    def readings_per_op(self, op):
        return len(self.batches[op][1])

    def cost_class(self, op):
        return 0  # every batch holds the same days, permuted

    def probe(self, spark, op):
        """The single-process baseline on the same batch's database,
        rebuilt here so untraced runs hold no reference database."""
        _, db = self.batch_path(spark, op)
        t0 = time.perf_counter()
        mine(db, self.cfg)
        return {"distributed.baseline_driver_s": time.perf_counter() - t0}


def _sorted_symbols(pdf: pd.DataFrame) -> pd.DataFrame:
    return (
        pdf[["var", "t", "symbol"]]
        .astype({"t": "int64"})
        .sort_values(["var", "t"])
        .reset_index(drop=True)
    )


WORKLOADS = {w.name: w for w in (CityApprox, StreamDistributed)}
