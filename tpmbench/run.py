"""Benchmark entry point: one closed-loop, one-client workload per run.

Run from the root of a checkout::

    python3 tpmbench/run.py --workload city_approx --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same loop with spans around every layer call, alternating untraced and
traced cycles, and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; lines before it starting with ``#`` record
the pinned settings and the latency sample.  See ``README.md`` in this
directory for the metric definitions and the layer map.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")

#: Spark settings pinned for every run; printed in the output header.
MASTER = "local[2]"
DRIVER_MEMORY = "1g"
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "2",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.adaptive.enabled": "true",
    "spark.sql.session.timeZone": "UTC",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
}
HASH_SEED = "0"
#: Setup repetitions; ``setup_s`` reports their median preparation time
#: (the first, cold repetition is printed on the ``# latency`` line).
SETUP_REPS = 3

SCALES = {
    "full": {"city_days": 48, "stream_days": 16, "warmup": True},
    "tiny": {"city_days": 4, "stream_days": 2, "warmup": False},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="full",
                   help="input size; 'tiny' is for the self-test")
    p.add_argument("--corrupt-reference", action="store_true",
                   help="self-test: break the references so the ops fail")
    return p.parse_args(argv)


def fail(msg: str) -> None:
    print(f"tpmbench: {msg}", file=sys.stderr)
    sys.exit(2)


def pin_environment(out_dir: str) -> None:
    """Environment read at JVM / worker launch; must precede pyspark."""
    tmp = os.path.join(out_dir, "tmp")
    local = os.path.join(out_dir, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    os.environ["PYTHONPATH"] = SRC
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = local
    os.environ["TMPDIR"] = tmp
    # -XX:-UsePerfData: no hsperfdata file in the system /tmp
    java_opts = shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {java_opts} pyspark-shell"
    )


def start_spark(out_dir: str, trace: bool):
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("tpmbench")
    for k, v in SPARK_CONF.items():
        b = b.config(k, v)
    b = b.config("spark.sql.warehouse.dir", os.path.join(out_dir, "warehouse"))
    if trace:
        ev = os.path.join(out_dir, "eventlog")
        os.makedirs(ev, exist_ok=True)
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", "file://" + ev)
            .config("spark.eventLog.compress", "false")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait until the JVM, and with it the Python
    workers it started, has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if proc is None:
        return
    gateway.shutdown()
    proc.stdin.close()  # the gateway JVM exits at end of its stdin
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def settings_header(spark) -> dict:
    conf = spark.sparkContext.getConf()
    return {
        "master": spark.sparkContext.master,
        "driver_memory": conf.get("spark.driver.memory", DRIVER_MEMORY),
        **{k: spark.conf.get(k) for k in SPARK_CONF},
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "spark": spark.version,
        "java": spark._jvm.java.lang.System.getProperty("java.version"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def peak_rss_mib() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not found in /proc/self/status")


def reset_peak_rss() -> float:
    """Restart VmHWM from the current RSS, so the reference computation
    (H-DFS is memory-hungry) does not set the serving peak.  Returns
    the RSS it restarts from, in MiB: the floor of ``peak_rss_mib``."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return peak_rss_mib()


class Loop:
    """Closed loop over ``wl.cycle``: time, check and count each op."""

    def __init__(self, wl, spark, tracer):
        self.wl, self.spark, self.tr = wl, spark, tracer
        self.i = 0
        self.attempted = self.failed = 0
        # (op index, latency s, traced) of the correct timed ops
        self.samples: list[tuple[int, float, bool]] = []
        self.failed_s: list[float] = []
        self.busy_s = 0.0  # time spent in timed ops, correct or not
        self.acc: dict = {}  # op kind -> share of reference patterns found

    def run_one(self, *, timed: bool, traced: bool = False) -> None:
        wl, tr = self.wl, self.tr
        op = wl.cycle[self.i % len(wl.cycle)]
        unit = f"op{self.i}"
        tr.enabled = traced
        tr.begin_unit(unit)
        gc.collect()
        t0 = time.perf_counter()
        ok, acc = False, 0.0
        try:
            with tr.span("op"):
                out = wl.run_op(self.spark, tr, op, self.i)
            dt = time.perf_counter() - t0
            ok, acc = wl.check(op, out)
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
        finally:
            tr.end_unit()
            tr.enabled = False
        self.i += 1
        if not ok:
            print(f"# op {unit} ({op}) wrong or raised", file=sys.stderr)
        if not timed:
            return
        self.attempted += 1
        # Time spent on a failed op counts towards the run length, so a
        # run whose every op fails still ends.
        self.busy_s += dt
        self.acc.setdefault(op, []).append(acc)
        if not ok:
            self.failed += 1
            self.failed_s.append(dt)
            return
        self.samples.append((self.i - 1, dt, traced))


def end_to_end(loop, setup_s: float) -> dict:
    wl = loop.wl
    # With no correct op (the run is reported incorrect anyway), the
    # latency falls back to every timed op.
    lat = [s for _, s, _ in loop.samples] or loop.failed_s
    # Throughput and accuracy weight each op kind by its share of the
    # cycle, so where the loop happened to stop does not shift them.
    # An op kind's time is the median latency of its cost class.
    by_class: dict = {}
    for i, s, _ in loop.samples:
        by_class.setdefault(wl.cost_class(wl.cycle[i % len(wl.cycle)]), []).append(s)
    served = [k for k in wl.cycle if wl.cost_class(k) in by_class]
    cycle_s = sum(statistics.median(by_class[wl.cost_class(k)]) for k in served)
    readings = sum(wl.readings_per_op(k) for k in served)
    acc = statistics.mean(statistics.mean(loop.acc[k]) for k in wl.cycle if k in loop.acc)
    return {
        "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "readings_per_s": {"value": readings / cycle_s if cycle_s else 0.0, "unit": "1/s"},
        "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
        "accuracy_pct": {"value": 100.0 * acc, "unit": "%"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail(f"no program source at {SRC}/repro; run from the repository root")
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    scale = SCALES[args.scale]
    trace = bool(args.trace)
    out_dir = os.path.join(
        ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    pin_environment(out_dir)

    wl = WORKLOADS[args.workload](args.seed, scale, os.path.join(out_dir, "inputs"))
    t0 = time.perf_counter()
    wl.generate()
    generate_s = time.perf_counter() - t0

    spark = start_spark(out_dir, trace)
    try:
        spark_ready_s = time.perf_counter() - PROCESS_START - generate_s
        header = settings_header(spark)
        print("# settings " + json.dumps(header, sort_keys=True), flush=True)
        result, per_layer = serve(args, wl, spark, trace, scale, spark_ready_s, out_dir)
    finally:
        stop_spark(spark)
    if per_layer is not None:
        # The event log is complete only once Spark has stopped.
        result["metrics"] = per_layer(os.path.join(out_dir, "eventlog"))
    # Keep only what a traced run reports from: spans.json, eventlog/.
    for sub in ("inputs", "tmp", "spark-local", "warehouse"):
        shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def serve(args, wl, spark, trace, scale, spark_ready_s, out_dir):
    """Set up, check references, warm up and run the timed loop.

    Returns the result line without metrics for a traced run, plus a
    function of the event-log directory that computes them.
    """
    from tracing import Tracer

    tr = Tracer(enabled=False, spark_context=spark.sparkContext if trace else None)
    if trace:
        from layers import instrument

        instrument(tr)
    prep = []
    for k in range(SETUP_REPS):
        tr.enabled = trace
        tr.begin_unit(f"setup{k}")
        t0 = time.perf_counter()
        with tr.span("setup"):
            wl.prepare(spark, tr)
        prep.append(time.perf_counter() - t0)
        tr.end_unit()
    tr.enabled = False
    setup_s = spark_ready_s + statistics.median(prep)

    t0 = time.perf_counter()
    wl.reference(spark)
    ref_s = time.perf_counter() - t0
    if args.corrupt_reference:
        wl.corrupt_reference()
    gc.collect()
    rss_floor_mib = reset_peak_rss()

    loop = Loop(wl, spark, tr)
    # Untimed warm-up: the JVM keeps speeding up for several ops.
    n_warm = wl.warmup_ops if scale["warmup"] else 1
    t0 = time.perf_counter()
    for _ in range(n_warm):
        loop.run_one(timed=False)
    warm_s = time.perf_counter() - t0

    cyc = len(wl.cycle)
    t_loop = time.perf_counter()
    if not trace:
        while loop.attempted == 0 or loop.busy_s < args.seconds:
            loop.run_one(timed=True)
    else:
        # Whole cycles, alternately untraced and traced, until the time
        # is spent and at least one cycle of each kind has run.
        n_cycles = 0
        while n_cycles < 2 or loop.busy_s < args.seconds:
            traced = n_cycles % 2 == 1
            for _ in range(cyc):
                loop.run_one(timed=True, traced=traced)
            n_cycles += 1
    loop_s = time.perf_counter() - t_loop

    lat = sorted(s for _, s, _ in loop.samples)
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) >= 100 else None
    print(
        "# latency "
        + json.dumps(
            {
                "n": len(lat),
                "p50_s": statistics.median(lat) if lat else None,
                "p90_s": p90,
                "p90_note": None if p90 else "needs >= 100 ops",
                "loop_wall_s": loop_s,
                "op_s": [round(s, 4) for _, s, _ in loop.samples],
                "warmup_s": warm_s,
                "reference_s": ref_s,
                "setup_prepare_s": prep,
                "spark_ready_s": spark_ready_s,
                "rss_at_reset_mib": rss_floor_mib,
            }
        ),
        flush=True,
    )
    result = {
        "correct": loop.failed == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
    }
    if not trace:
        result["metrics"] = end_to_end(loop, setup_s)
        return result, None

    from layers import per_layer_metrics

    # The first traced cycle directly follows the first untraced one.
    first_traced = range(n_warm + cyc, n_warm + 2 * cyc)
    probes = [wl.probe(spark, wl.cycle[i % cyc]) for i in first_traced]
    tr.write(os.path.join(out_dir, "spans.json"))
    return result, lambda event_dir: per_layer_metrics(
        tr, loop, first_traced, probes, event_dir
    )


if __name__ == "__main__":
    sys.exit(main())
