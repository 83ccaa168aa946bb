"""Tests for the benchmark itself: inputs, checks, output contract.

Run with ``python -m pytest bench``; they need no timing to pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from shuntline import parse_spec, spec_digest  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _first_passes(seed, n):
    stream = gen.verdict_passes(seed)
    return [next(stream) for _ in range(n)]


def test_generator_is_deterministic_with_distinct_digests():
    a = _first_passes(7, 3)
    b = _first_passes(7, 3)
    assert a == b
    docs = [i["doc"] for p in a for i in p]
    assert len({spec_digest(parse_spec(d)) for d in docs}) == len(docs)
    other = [i["doc"] for i in _first_passes(8, 1)[0]]
    assert other != docs[:len(other)]
    tols = [i["rel_tol"] for i in a[0]]
    assert abs(tols.count(gen.TIGHT_TOL) - len(tols) / gen.TIGHT_EVERY) < 1
    assert gen.hitting_cycle(3, 1) == gen.hitting_cycle(3, 1)
    assert gen.defect_cycle(3, 1) == gen.defect_cycle(3, 1)
    assert gen.defect_cycle(3, 1) != gen.defect_cycle(4, 1)


def test_generator_does_not_import_the_package():
    source = (BENCH / "gen.py").read_text(encoding="utf-8")
    assert "import shuntline" not in source
    assert "from shuntline" not in source


def test_planted_wrong_verdict_is_a_failure(monkeypatch):
    item = next(i for i in _first_passes(2, 1)[0] if i["builtin"] == "bm")
    res = workloads.verdict_op(item, workloads.NULL)
    tally = workloads.Tally()
    assert workloads._verdict_done(item, res, tally, 0.0) == []
    monkeypatch.setitem(checks.VERDICT_TABLE, "bm", (True, True, False))
    assert workloads._verdict_done(item, res, tally, 0.0) != []


def test_planted_wrong_hitting_value_is_a_failure(monkeypatch):
    # fewer replications than the workload uses, to keep the test short
    call = dict(gen.hitting_cycle(1, 0)[0], n_rep=64)
    res = workloads.hitting_op(call, workloads.NULL)
    assert workloads._hitting_done(call, res, workloads.Tally(), 0.0) == []
    monkeypatch.setattr(workloads, "analytic_hitting", lambda *a: 0.9)
    assert workloads._hitting_done(call, res, workloads.Tally(), 0.0) != []


def test_planted_defect_outside_bounds_is_a_failure():
    call = gen.defect_cycle(1, 0)[2]
    assert not call["expect_positive"]
    assert checks.defect(call, {"mean": 0.01, "ci_low": -0.04,
                                "ci_high": 0.06}) == []
    assert checks.defect(call, {"mean": 0.5, "ci_low": 0.45,
                                "ci_high": 0.55}) != []


def test_verdicts_smoke():
    tally, _ = workloads.run("verdicts", 5, 0, False)
    passes = len(tally.rates)
    assert tally.attempted == sum(len(p) for p in _first_passes(5, passes))
    assert tally.attempted >= workloads.MIN_VERDICT_OPS
    assert tally.failed == 0
    assert tally.undetermined == passes * gen.POOL_BORDERLINE


def test_hitting_smoke_traced_reports_every_layer_metric():
    tally, tracer = workloads.run("hitting", 2, 0, True)
    assert tally.failed == 0
    metrics, _ = run.collect(True, tally, tracer, 1.0,
                             {"numpy_s": 0.1, "scipy_s": 0.5,
                              "shuntline_s": 0.1})
    want = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: u for k, (_, u) in metrics.items()} == want
    assert metrics["simulate.hitting_s"][0] > 0
    # layers only the warm-up calls read 0: its spans are left out
    for layer in ("hunt.check", "symmetry.check", "simulate.defect"):
        assert metrics[f"{layer}_share"][0] == 0
    names = {s[0] for s in tracer.spans}
    assert {name for name, _ in workloads.LAYERS} <= names
    ops = {s[4] for s in tracer.spans}
    assert "prime" in ops and len(ops) == tally.attempted + 1


def test_defect_smoke_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "defect", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(gen.DEFECT_CASES)
    want = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "verdicts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
