"""Per-layer metrics of a traced run.

``PER_LAYER`` lists every metric the traced run prints, with its unit
and where it comes from:

* ``span``  — median, over the units where the span ran, of the span's
  summed self time in that unit (setup repetitions for the transform
  layers of ``city_approx``, traced ops otherwise);
* ``count`` — sum of a counter over the canonical units: the first
  setup repetition plus the first traced cycle of ops, so the value
  repeats exactly from run to run;
* ``spark`` — Spark task metrics of the canonical units' jobs, split
  per layer by job group (see :mod:`tracing`);
* ``probe`` — figures the workload measures outside the op
  (``Workload.probe``) after each op of the first traced cycle.

A layer a workload never calls reports 0.
"""
from __future__ import annotations

import statistics

from tracing import SPARK_METRICS, spark_layer_metrics

#: Layers whose Spark jobs are split out, by span-name prefix.
SPARK_LAYERS = ("symbolize", "events", "sequences", "streaming", "seqdb", "mi", "distributed")

_SPARK_UNITS = {
    "spark_tasks": "count",
    "spark_run_s": "s",
    "spark_cpu_s": "s",
    "spark_gc_s": "s",
    "spark_sched_delay_s": "s",
    "spark_shuffle_write_bytes": "bytes",
    "spark_shuffle_read_bytes": "bytes",
    "spark_task_skew": "ratio",
}

#: (metric, unit, source kind, source name)
PER_LAYER = [
    ("symbolize.busy_s", "s", "span", "symbolize"),
    ("symbolize.rows_out", "count", "count", "symbolize.rows_out"),
    ("events.busy_s", "s", "span", "events"),
    ("events.instances_out", "count", "count", "events.instances_out"),
    ("sequences.busy_s", "s", "span", "sequences"),
    ("sequences.rows_out", "count", "count", "sequences.rows_out"),
    ("streaming.drain_s", "s", "span", "streaming.drain"),
    ("streaming.rows_in", "count", "stream", "rows_in"),
    ("streaming.rows_out", "count", "count", "streaming.rows_out"),
    ("streaming.batches", "count", "stream", "batches"),
    ("seqdb.collect_s", "s", "span", "seqdb.collect"),
    ("seqdb.build_s", "s", "span", "seqdb.build"),
    ("seqdb.rows", "count", "count", "seqdb.rows"),
    ("seqdb.events", "count", "count", "seqdb.events"),
    ("htpgm.mine_s", "s", "span", "htpgm.mine"),
    ("htpgm.candidates_l2", "count", "count", "htpgm.candidates_l2"),
    ("htpgm.candidates_k", "count", "count", "htpgm.candidates_k"),
    ("htpgm.enumerated_nodes", "count", "count", "htpgm.enumerated_nodes"),
    ("htpgm.green_nodes", "count", "count", "htpgm.green_nodes"),
    ("htpgm.useful_ratio", "ratio", "ratio", ("htpgm.green_nodes", "htpgm.enumerated_nodes")),
    ("htpgm.patterns", "count", "count", "htpgm.patterns"),
    ("htpgm.peak_alloc_mib", "MiB", "probe", "htpgm.peak_alloc_mib"),
    ("mi.nmi_s", "s", "span", "mi.nmi"),
    ("mi.joint_counts_s", "s", "span", "mi.joint_counts"),
    ("mi.joint_rows", "count", "count", "mi.joint_rows"),
    ("mi.pairs", "count", "count", "mi.pairs"),
    ("ahtpgm.graph_s", "s", "span", "ahtpgm.graph"),
    ("ahtpgm.mine_s", "s", "span", "ahtpgm.mine"),
    ("ahtpgm.edges", "count", "count", "ahtpgm.edges"),
    ("ahtpgm.vars_kept", "count", "count", "ahtpgm.vars_kept"),
    ("ahtpgm.events_kept", "count", "count", "ahtpgm.events_kept"),
    ("distributed.mine_s", "s", "span", "distributed.mine"),
    ("distributed.nodes_l2", "count", "count", "distributed.nodes_l2"),
    ("distributed.nodes_l3", "count", "count", "distributed.nodes_l3"),
    ("distributed.baseline_driver_s", "s", "probe", "distributed.baseline_driver_s"),
    *(
        (f"{layer}.{m}", _SPARK_UNITS[m], "spark", (layer, m))
        for layer in SPARK_LAYERS
        for m in SPARK_METRICS
    ),
    ("trace.overhead_s", "s", "overhead", None),
    ("trace.unattributed_s", "s", "span", "op"),
]


def instrument(tr) -> None:
    """Spans for calls layers make internally, reached by wrapping the
    module attribute the caller looks up."""
    from repro.core import ahtpgm, mi
    from repro.core.seqdb import SequenceDatabase

    def count_db(db):
        tr.count("seqdb.rows", sum(len(i) for s in db.sequences for i in s.values()))
        tr.count("seqdb.events", len(db.bitmaps))

    # from_spark calls cls.from_pandas, so its build runs in this span
    tr.wrap(SequenceDatabase, "from_pandas", "seqdb.build", count_db)
    tr.wrap(
        mi,
        "joint_symbol_counts",
        "mi.joint_counts",
        lambda out: tr.count("mi.joint_rows", len(out)),
    )
    tr.wrap(ahtpgm, "mine", "htpgm.mine")


def per_layer_metrics(tr, loop, first_traced, probes, event_dir) -> dict:
    canonical = {"setup0", *(f"op{i}" for i in first_traced)}
    unit_self = tr.unit_self_times()
    spark, stream = spark_layer_metrics(event_dir, tr, canonical)
    traced_lat = [s for _, s, t in loop.samples if t]
    plain_lat = [s for _, s, t in loop.samples if not t]

    def count(name):
        return sum(v for (u, m), v in tr.counts.items() if m == name and u in canonical)

    out = {}
    for name, unit, kind, src in PER_LAYER:
        if kind == "span":
            vals = [d[src] for d in unit_self.values() if src in d]
            v = statistics.median(vals) if vals else 0.0
        elif kind == "count":
            v = count(src)
        elif kind == "ratio":
            den = count(src[1])
            v = count(src[0]) / den if den else 0.0
        elif kind == "stream":
            v = stream[src]
        elif kind == "spark":
            v = spark.get(src[0], {}).get(src[1], 0)
        elif kind == "probe":
            vals = [p[src] for p in probes if src in p]
            v = statistics.median(vals) if vals else 0.0
        else:  # overhead
            v = statistics.median(traced_lat) - statistics.median(plain_lat)
        out[name] = {"value": v, "unit": unit}
    return out
