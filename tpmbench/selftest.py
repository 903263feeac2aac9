"""Quick self-test of the benchmark itself.

Runs every workload at a tiny input size, traced and untraced, and
checks that

* each run is correct and prints every metric name and unit that
  ``BENCHMARK.json`` lists for its mode, and nothing else;
* the traced counts match the per-layer table in ``layers.py``;
* a corrupted reference makes ops fail (``failed`` > 0, ``correct``
  false) instead of passing unnoticed.

Run from the repository root: ``python3 tpmbench/selftest.py``.
Exits non-zero on the first mismatch.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny", *extra,
    ]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)}\n{p.stderr[-4000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def expect(cond: bool, msg: str) -> None:
    if not cond:
        sys.exit(f"FAIL {msg}")
    print(f"ok   {msg}", flush=True)


def main() -> None:
    from layers import PER_LAYER

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(
        per_layer == {name: unit for name, unit, _, _ in PER_LAYER},
        "BENCHMARK.json per_layer matches layers.PER_LAYER",
    )
    workloads = [x["name"] for x in spec["workloads"]]
    for w in workloads:
        for trace, want in ((0, e2e), (1, per_layer)):
            r = run(w, trace)
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{w} trace={trace}: all ops correct")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == want, f"{w} trace={trace}: metric names and units")
            if trace == 0:
                expect(all(v["value"] > 0 for v in r["metrics"].values()),
                       f"{w}: end-to-end metrics are non-zero")
    for w in workloads:
        r = run(w, 0, "--corrupt-reference")
        expect(r["failed"] > 0 and not r["correct"],
               f"{w}: corrupted reference counted as failure "
               f"({r['failed']}/{r['attempted']})")
    print("selftest passed")


if __name__ == "__main__":
    main()
