"""The three closed-loop workloads (one client, one operation at a time).

An operation starts from a generated document, as a CLI call would, and
goes through the public functions of ``shuntline``.  Every layer call is
made through a ``Tracer``; with tracing off that is a plain call.  The
end-to-end timings are taken here with ``perf_counter`` whatever the
tracing mode.  Answers are checked outside the timed spans.

In a traced run each operation also runs once untraced, on a twin input
that differs only in its name, so the tracing overhead is the traced
time minus the untraced time of the same work.
"""

from __future__ import annotations

import itertools
import statistics
import sys
from time import perf_counter

import checks
import gen
from spans import NULL, Tracer

from shuntline import (UndeterminedVerdict, analytic_hitting,
                       boundary_profile, build_chain, build_graph,
                       canonical_measure, check_adapted, check_hunt,
                       check_regular_form, check_symmetrizable,
                       communication_classes, estimate_hitting,
                       estimate_symmetry_defect, eval_scale, lambda_ap,
                       lambda_at, lambda_sets, parse_spec, validate)

MIN_VERDICT_OPS = 200   # leaves at least ten samples above p95
HITTING_JOBS = 1
DEFECT_JOBS = 2

# (span name, unit of its p50) for every layer call the workloads make.
LAYERS = (
    ("model.parse", "ms"), ("model.validate", "ms"),
    ("classify.lambda_sets", "ms"), ("boundary.profile", "ms"),
    ("graph.build", "ms"), ("hunt.check", "ms"), ("symmetry.check", "ms"),
    ("symmetry.measure", "ms"), ("dirichlet.regular_form", "ms"),
    ("dirichlet.adapted", "ms"), ("simulate.build_chain", "ms"),
    ("simulate.hitting", "s"), ("simulate.defect", "s"),
)
OP_SPANS = ("op.verdict", "op.hitting", "op.defect")
STATUS_NAMES = ("alive", "killed_at_window", "absorbed_at_trap",
                "dead_at_infinite_endpoint")


class Tally:
    """Counts, timings and layer counters of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_s = []          # latency of each completed operation
        self.rates = []         # work per second of each whole cycle
        self._work = 0          # verdicts or replications in this cycle
        self._work_s = 0.0      # seconds spent doing that work
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.endpoints = 0
        self.undetermined = 0
        self.n_nodes = []
        self.status = dict.fromkeys(STATUS_NAMES, 0)
        self.start_offset_u = 0.0

    def add_work(self, work, seconds):
        self._work += work
        self._work_s += seconds

    def end_cycle(self):
        """Close one whole cycle (or pass) and keep its throughput."""
        if self._work_s > 0:
            self.rates.append(self._work / self._work_s)
        self._work, self._work_s = 0, 0.0

    def work_per_s(self):
        """Median throughput over the run's whole cycles (0 if none)."""
        return statistics.median(self.rates) if self.rates else 0.0

    def fail(self, what, messages):
        self.failed += 1
        for m in messages:
            print(f"FAILED {what}: {m}", file=sys.stderr)


# ---------------------------------------------------------------------------
# operations


def verdict_op(item, tr):
    """What classify, check-hunt, check-symmetry, measure and dirichlet
    compute together for one spec."""
    rel_tol = item["rel_tol"]
    spec = tr.call("model.parse", parse_spec, item["doc"])
    report = tr.call("model.validate", validate, spec)
    out = {"valid": report.ok, "undetermined": False,
           "n_regular": len(spec.regular_indices())}
    if not report.ok:
        return spec, out
    tr.call("classify.lambda_sets", lambda_sets, spec)
    try:
        profile = tr.call("boundary.profile", boundary_profile, spec, rel_tol)
    except UndeterminedVerdict as exc:
        out.update(undetermined=True, message=str(exc))
        return spec, out
    out["endpoints"] = len(profile)
    tr.call("graph.build", lambda: communication_classes(build_graph(spec)))
    hunt = tr.call("hunt.check", check_hunt, spec, rel_tol)
    sym = tr.call("symmetry.check", check_symmetrizable, spec, rel_tol)
    out.update(hunt=hunt.holds, killed=sym.killed, full=sym.full,
               witnesses=[w.kind for w in hunt.witnesses],
               regular_form=None, adapted=None)
    if sym.killed:
        tr.call("symmetry.measure", canonical_measure, spec, rel_tol)
    if sym.full:
        out["regular_form"] = tr.call("dirichlet.regular_form",
                                      check_regular_form, spec).ok
        out["adapted"] = tr.call("dirichlet.adapted", check_adapted,
                                 spec, rel_tol).ok
    return spec, out


def _chain_for(call, tr):
    spec = tr.call("model.parse", parse_spec, call["doc"])
    tr.call("model.validate", validate, spec)
    chain = tr.call("simulate.build_chain", build_chain, spec,
                    call["window"], call["h"])
    return spec, chain


def hitting_op(call, tr):
    spec, chain = _chain_for(call, tr)
    t0 = perf_counter()
    est = tr.call("simulate.hitting", estimate_hitting, chain, call["x0"],
                  call["target"], call["t_max"], call["n_rep"],
                  seed=call["seed"], n_jobs=HITTING_JOBS,
                  mode="killed_at_traps",
                  exponential_holding=call["exponential_holding"])
    return spec, chain, est, perf_counter() - t0


def _indicator(lo, hi):
    def f(x):
        return 1.0 if lo < x < hi else 0.0
    return f


def defect_op(call, tr):
    spec, chain = _chain_for(call, tr)
    f = _indicator(*call["f_window"])
    g = _indicator(*call["g_window"])
    t0 = perf_counter()
    est = tr.call("simulate.defect", estimate_symmetry_defect, chain, f, g,
                  call["t_max"], call["n_rep"], seed=call["seed"],
                  n_jobs=DEFECT_JOBS, mode=call["mode"],
                  weights=call["weights"])
    return spec, chain, est, perf_counter() - t0


def _twin(call):
    """The same operation on a document that differs only in its name,
    so no cache entry of the original can answer it."""
    twin = dict(call)
    twin["doc"] = dict(call["doc"], name=call["doc"]["name"] + "-twin")
    return twin


def _timed(op_name, op, call, tr, tally):
    """Run one operation, and its untraced twin too when tracing, in
    alternating order.  Returns (result, seconds) of the traced run, or
    of the only run."""
    if not tr.enabled:
        t0 = perf_counter()
        res = op(call, NULL)
        return res, perf_counter() - t0
    runs = [(_twin(call), NULL), (call, tr)]
    if tally.attempted % 2:
        runs.reverse()
    for c, t in runs:
        t0 = perf_counter()
        if t.enabled:
            res = t.call(op_name, op, c, t)
            dt = perf_counter() - t0
            tally.traced_s += dt
        else:
            op(c, t)
            tally.untraced_s += perf_counter() - t0
    return res, dt


# ---------------------------------------------------------------------------
# checks and counters that run outside the timed spans


def _verdict_done(item, res, tally, dt):
    spec, out = res
    bad = checks.verdict_outcome(item, out)
    if not out["undetermined"] and out["valid"]:
        tally.endpoints += out["endpoints"]
        bad += checks.c03_identity(out, out["hunt"],
                                   lambda_ap(spec, literal=True),
                                   lambda_at(spec))
    else:
        tally.undetermined += out["undetermined"]
    tally.op_s.append(dt)
    tally.add_work(1, dt)
    return bad


def _chain_done(call, spec, chain, tally):
    tally.n_nodes.append(chain.n_nodes)
    if "x0" in call:
        _, piece = spec.piece_at(call["x0"])
        u0 = float(eval_scale(piece, call["x0"]))
        off = abs(float(chain.u[chain.node_at(call["x0"])]) - u0)
        tally.start_offset_u = max(tally.start_offset_u, off)


def _hitting_done(call, res, tally, dt):
    spec, chain, est, est_s = res
    _chain_done(call, spec, chain, tally)
    for name in STATUS_NAMES:
        tally.status[name] += est["status_counts"][name]
    expected = None if call["reverse"] else analytic_hitting(
        spec, call["x0"], call["window"][0], call["target"])
    tally.op_s.append(dt)
    tally.add_work(call["n_rep"], est_s)
    return checks.hitting(call, est, expected)


def _defect_done(call, res, tally, dt):
    spec, chain, est, est_s = res
    _chain_done(call, spec, chain, tally)
    tally.op_s.append(dt)
    tally.add_work(call["n_rep"], est_s)
    return checks.defect(call, est)


# ---------------------------------------------------------------------------
# warm-up: every layer once, so lazy imports and caches settle before
# timing


PRIME_VERDICT = {"doc": {"name": "prime-bm", "pieces": gen.BUILTINS["bm"]},
                 "rel_tol": 1e-6}
PRIME_HITTING = {
    "doc": {"name": "prime-bm", "pieces": gen.BUILTINS["bm"]},
    "window": (0.0, 1.0), "h": 0.05, "x0": 0.3, "target": 1.0, "t_max": 5.0,
    "n_rep": 64, "seed": 1, "exponential_holding": False}
PRIME_DEFECT = {
    "doc": {"name": "prime-bm", "pieces": gen.BUILTINS["bm"]},
    "window": (0.0, 1.0), "h": 0.05, "t_max": 0.3, "n_rep": 64, "seed": 1,
    "mode": "full", "weights": None, "f_window": (0.1, 0.3),
    "g_window": (0.6, 0.8)}


def prime(tr):
    """Its spans are tagged ``prime`` and left out of the layer figures;
    its answers and counters are not part of the run's figures."""
    tr.op = "prime"
    tr.call("op.verdict", verdict_op, PRIME_VERDICT, tr)
    tr.call("op.hitting", hitting_op, PRIME_HITTING, tr)
    tr.call("op.defect", defect_op, PRIME_DEFECT, tr)


# ---------------------------------------------------------------------------
# workloads


def _run(cycles, op_name, op, done, seconds, tr, tally, min_ops=1):
    """Whole cycles of operations until the time is up and at least
    min_ops are attempted."""
    t_start = perf_counter()
    for calls in cycles:
        for call in calls:
            tally.attempted += 1
            tr.op = tally.attempted
            try:
                res, dt = _timed(op_name, op, call, tr, tally)
                bad = done(call, res, tally, dt)
            except Exception as exc:  # an operation that raised counts as failed
                bad = [f"raised {exc!r}"]
            if bad:
                tally.fail(call["doc"]["name"], bad)
        tally.end_cycle()
        if perf_counter() - t_start >= seconds and tally.attempted >= min_ops:
            return


def run_verdicts(seed, seconds, tr, tally):
    _run(gen.verdict_passes(seed), "op.verdict", verdict_op, _verdict_done,
         seconds, tr, tally, MIN_VERDICT_OPS)


def run_hitting(seed, seconds, tr, tally):
    cycles = (gen.hitting_cycle(seed, c) for c in itertools.count())
    _run(cycles, "op.hitting", hitting_op, _hitting_done, seconds, tr, tally)


def run_defect(seed, seconds, tr, tally):
    cycles = (gen.defect_cycle(seed, c) for c in itertools.count())
    _run(cycles, "op.defect", defect_op, _defect_done, seconds, tr, tally)


WORKLOADS = {"verdicts": run_verdicts, "hitting": run_hitting,
             "defect": run_defect}


def run(workload, seed, seconds, trace):
    """Prime, then run one workload; returns (tally, tracer)."""
    tr = Tracer(trace)
    tally = Tally()
    prime(tr)
    WORKLOADS[workload](seed, seconds, tr, tally)
    return tally, tr

