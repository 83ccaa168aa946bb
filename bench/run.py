"""Benchmark entry point for shuntline.

    python3 bench/run.py --workload verdicts --seed 1 --seconds 20 --trace 0

Runs one workload in a closed loop (one client) for ``--seconds``, checks
every answer, and prints each metric as ``name value unit`` followed, as
the last line, by one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` records spans around every layer call
and reports the per-layer metrics instead.  The full report (and the
spans, when traced) is written under ``bench/out/``.

The package is imported from ``src/`` next to this directory; without
it the run fails before printing any result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 5
# Imports timed in a fresh interpreter: numpy, then scipy.integrate, then
# the rest of shuntline.  The outer wall time of the process is setup_s.
SETUP_PROBE = """
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.integrate
t2 = time.perf_counter()
import shuntline
t3 = time.perf_counter()
print(json.dumps({"numpy_s": t1 - t0, "scipy_s": t2 - t1,
                  "shuntline_s": t3 - t2, "file": shuntline.__file__}))
"""


def _under_src(path):
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup():
    """Median wall time of a fresh interpreter importing shuntline, and
    the median time of each import stage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, stages = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        walls.append(time.perf_counter() - t0)
        stage = json.loads(proc.stdout)
        if not _under_src(stage.pop("file")):
            raise RuntimeError("setup probe imported shuntline from outside src/")
        stages.append(stage)
    split = {k: statistics.median(s[k] for s in stages) for k in stages[0]}
    return statistics.median(walls), split


def source_counts():
    lines = {p.name: len(p.read_text(encoding="utf-8").splitlines())
             for p in sorted((SRC / "shuntline").glob("*.py"))}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"].get("dependencies", [])
    return lines, deps


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by statistics.quantiles."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def collect(trace, tally, tracer, setup_s, setup_split):
    """(metrics, info): the reported metrics of the run's mode, and the
    informational numbers that only go to the report file."""
    import workloads
    from spans import layer_metrics

    op_s = tally.op_s
    p95 = percentile(op_s, 95)
    info = {
        "op_fail_share": (tally.failed / tally.attempted, "1"),
        "op_count": (len(op_s), "count"),
        "op_ms_p95": (p95 * 1e3, "ms"),
        "op_samples_above_p95": (sum(1 for v in op_s if v > p95), "count"),
        "cycle_work_per_s": (tally.rates, "1/s"),
        "op_ms": ([v * 1e3 for v in op_s], "ms"),
    }
    if not trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "work_per_s": (tally.work_per_s(), "1/s"),
            "op_ms_p50": (percentile(op_s, 50) * 1e3, "ms"),
        }, info
    overhead_s = tally.traced_s - tally.untraced_s
    lines, deps = source_counts()
    metrics = {f"setup.{k}": (v, "s") for k, v in setup_split.items()}
    metrics.update(layer_metrics(tracer.spans, workloads.LAYERS,
                                 workloads.OP_SPANS))
    metrics.update({
        "boundary.endpoints": (tally.endpoints, "count"),
        "boundary.undetermined": (tally.undetermined, "count"),
        "simulate.n_nodes": (statistics.median(tally.n_nodes)
                             if tally.n_nodes else 0, "count"),
        "simulate.start_offset_u": (tally.start_offset_u, "scale"),
        "trace.overhead_ms": (overhead_s * 1e3, "ms"),
        "trace.overhead_share": (100.0 * overhead_s / tally.untraced_s
                                 if tally.untraced_s else 0.0, "%"),
        "src.lines": (sum(lines.values()), "count"),
        "src.modules": (len(lines), "count"),
        "src.runtime_deps": (len(deps), "count"),
    })
    for name, n in tally.status.items():
        metrics[f"simulate.status.{name}"] = (n, "count")
    info["src_lines"] = (lines, "lines")
    info["runtime_deps"] = (deps, "")
    return metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verdicts", "hitting", "defect"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "shuntline" / "__init__.py").is_file():
        print(f"error: no shuntline sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shuntline
    if not _under_src(shuntline.__file__):
        print(f"error: shuntline imported from {shuntline.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    setup = measure_setup()
    tally, tracer = workloads.run(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    metrics, info = collect(bool(args.trace), tally, tracer, *setup)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"report-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "attempted": tally.attempted,
                   "failed": tally.failed,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()},
                   "info": {k: {"value": v, "unit": u}
                            for k, (v, u) in info.items()}},
                  fh, indent=1)
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.json")

    for k, (v, u) in list(metrics.items()) + list(info.items()):
        if not isinstance(v, (dict, list)):
            print(f"{k} {v} {u}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
