"""Spans around layer calls, and Spark event-log attribution.

A :class:`Tracer` records one span per layer call made by the benchmark
(name, start, end, parent, unit).  A *unit* is one setup repetition
(``setup0``, ``setup1``, ...) or one op (``op0``, ...); every span
belongs to exactly one unit.  With tracing disabled, :meth:`Tracer.span`
and :meth:`Tracer.force` do nothing, so the untraced end-to-end run
pays for neither.

With tracing enabled, the tracer also sets the Spark job group to the
span's id, so that the event log written by Spark can be split per
layer afterwards (:func:`spark_layer_metrics`).  Jobs whose group is not
a span id (structured streaming sets its own group per query run) are
attributed to the innermost span whose wall-clock interval holds the
job's submission time.
"""
from __future__ import annotations

import glob
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    unit: str
    parent: int | None
    start: float  # perf_counter seconds
    end: float
    wall_start_ms: float  # epoch milliseconds, to match Spark's event log
    wall_end_ms: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span and count recorder; a no-op when ``enabled`` is false."""

    def __init__(self, enabled: bool, spark_context=None):
        self.enabled = enabled
        self.sc = spark_context
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.unit = ""
        self._stack: list[Span] = []
        self._forced: list = []

    def begin_unit(self, unit: str) -> None:
        self.unit = unit

    def end_unit(self) -> None:
        """Drop the DataFrames :meth:`force` cached during the unit."""
        for df in self._forced:
            df.unpersist()
        self._forced.clear()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            id=len(self.spans),
            name=name,
            unit=self.unit,
            parent=parent.id if parent else None,
            start=time.perf_counter(),
            end=0.0,
            wall_start_ms=time.time() * 1000,
            wall_end_ms=0.0,
        )
        self.spans.append(sp)
        self._stack.append(sp)
        self._set_group(sp)
        try:
            yield
        finally:
            sp.end = time.perf_counter()
            sp.wall_end_ms = time.time() * 1000
            self._stack.pop()
            self._set_group(self._stack[-1] if self._stack else None)

    def _set_group(self, sp: Span | None) -> None:
        if self.sc is None:
            return
        if sp is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self.sc.setJobGroup(f"span-{sp.id}", sp.name)

    def count(self, metric: str, value: float) -> None:
        if self.enabled:
            self.counts[(self.unit, metric)] += value

    def force(self, df, rows_metric: str | None = None):
        """Traced mode: persist + count ``df`` so a lazy layer's work
        runs inside its own span.  Untraced: return ``df`` unchanged."""
        if not self.enabled:
            return df
        df = df.persist()
        n = df.count()
        self._forced.append(df)
        if rows_metric:
            self.count(rows_metric, n)
        return df

    def wrap(self, module, attr: str, span_name: str, on_result=None):
        """Replace ``module.attr`` (of a module or a class) by a version
        that runs in a span.

        Used for calls a layer makes internally (e.g. ``mi.nmi_matrix``
        calling ``joint_symbol_counts``), which the benchmark cannot
        reach with a ``with`` block.  ``on_result(result)`` may record
        counts.  Only used in traced mode.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(span_name):
                out = fn(*args, **kwargs)
            if on_result is not None and self.enabled:
                on_result(out)
            return out

        setattr(module, attr, traced)

    # ---- summaries ---------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.duration
        return {sp.id: sp.duration - child[sp.id] for sp in self.spans}

    def unit_self_times(self) -> dict[str, dict[str, float]]:
        """unit -> span name -> summed self time in that unit."""
        st = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sp in self.spans:
            out[sp.unit][sp.name] += st[sp.id]
        return out

    def write(self, path: str) -> None:
        st = self.self_times()
        by_name: dict[str, list[float]] = defaultdict(list)
        for sp in self.spans:
            by_name[sp.name].append(st[sp.id])
        summary = {
            name: {
                "calls": len(v),
                "self_s_total": sum(v),
                "self_s_median": statistics.median(v),
            }
            for name, v in sorted(by_name.items())
        }
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [
                        dict(asdict(sp), self_s=st[sp.id]) for sp in self.spans
                    ],
                    "self_time_by_span": summary,
                    "counts": [
                        {"unit": u, "metric": m, "value": v}
                        for (u, m), v in self.counts.items()
                    ],
                },
                f,
                indent=1,
            )


def _read_events(event_dir: str):
    for path in sorted(glob.glob(os.path.join(event_dir, "**"), recursive=True)):
        if os.path.isfile(path) and not os.path.basename(path).startswith("appstatus"):
            with open(path) as f:
                for line in f:
                    line = line.strip()
                    if line:
                        yield json.loads(line)


def _iso_ms(ts: str) -> float:
    from datetime import datetime

    return datetime.fromisoformat(ts.replace("Z", "+00:00")).timestamp() * 1000


#: Spark per-layer metric suffixes, in output order.
SPARK_METRICS = (
    "spark_tasks",
    "spark_run_s",
    "spark_cpu_s",
    "spark_gc_s",
    "spark_sched_delay_s",
    "spark_shuffle_write_bytes",
    "spark_shuffle_read_bytes",
    "spark_task_skew",
)


def spark_layer_metrics(
    event_dir: str, tracer: Tracer, units: set[str]
) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
    """Per-layer Spark task metrics for the jobs of ``units``' spans.

    Returns ``(layer -> metric -> value, streaming counts)``, where a
    layer is the part of a span name before the first dot, and the
    streaming counts are the micro-batch count and input rows read from
    the query-progress events of the same units.
    """
    spans = {sp.id: sp for sp in tracer.spans}

    def innermost(ms: float) -> Span | None:
        best = None
        for sp in tracer.spans:
            if sp.wall_start_ms <= ms <= sp.wall_end_ms:
                if best is None or sp.wall_start_ms >= best.wall_start_ms:
                    best = sp
        return best

    stage_span: dict[int, Span] = {}
    tasks: dict[str, list[dict]] = defaultdict(list)
    stream = {"batches": 0, "rows_in": 0}
    for ev in _read_events(event_dir):
        kind = ev.get("Event")
        if kind == "SparkListenerJobStart":
            group = (ev.get("Properties") or {}).get("spark.jobGroup.id") or ""
            sp = None
            if group.startswith("span-"):
                sp = spans.get(int(group[5:]))
            if sp is None:
                sp = innermost(ev["Submission Time"])
            if sp is not None:
                for sid in ev["Stage IDs"]:
                    stage_span.setdefault(sid, sp)
        elif kind == "SparkListenerTaskEnd":
            sp = stage_span.get(ev["Stage ID"])
            if sp is None or sp.unit not in units or not ev.get("Task Metrics"):
                continue
            tasks[sp.name.split(".")[0]].append(ev)
        elif kind.endswith("QueryProgressEvent"):
            prog = ev["progress"]
            sp = innermost(_iso_ms(prog["timestamp"]))
            rows = sum(src.get("numInputRows", 0) for src in prog.get("sources", []))
            if sp is not None and sp.unit in units and rows > 0:
                stream["batches"] += 1
                stream["rows_in"] += rows

    out: dict[str, dict[str, float]] = {}
    for layer, evs in tasks.items():
        run, cpu, gc, sched, sw, sr, durs = 0.0, 0.0, 0.0, 0.0, 0, 0, []
        for ev in evs:
            tm, ti = ev["Task Metrics"], ev["Task Info"]
            dur = ti["Finish Time"] - ti["Launch Time"]
            durs.append(dur)
            run += tm["Executor Run Time"] / 1000
            cpu += tm["Executor CPU Time"] / 1e9
            gc += tm["JVM GC Time"] / 1000
            # Spark's own scheduler-delay formula; "Getting Result Time"
            # is a timestamp (0 when the result came with the task).
            getting = ti.get("Getting Result Time", 0)
            fetch = ti["Finish Time"] - getting if getting > 0 else 0
            sched += max(
                0,
                dur
                - tm["Executor Run Time"]
                - tm["Executor Deserialize Time"]
                - tm["Result Serialization Time"]
                - fetch,
            ) / 1000
            sw += tm["Shuffle Write Metrics"]["Shuffle Bytes Written"]
            rm = tm["Shuffle Read Metrics"]
            sr += rm["Remote Bytes Read"] + rm["Local Bytes Read"]
        med = statistics.median(durs)
        out[layer] = {
            "spark_tasks": len(evs),
            "spark_run_s": run,
            "spark_cpu_s": cpu,
            "spark_gc_s": gc,
            "spark_sched_delay_s": sched,
            "spark_shuffle_write_bytes": sw,
            "spark_shuffle_read_bytes": sr,
            "spark_task_skew": max(durs) / med if med > 0 else 1.0,
        }
    return out, stream
