"""Shell quadrature: verdicts and values on integrals with known answers."""

import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from shuntline import EvalError, QuadratureError
from shuntline.dirichlet import Profile
from shuntline.quadrature import (FINITE, GAUSS_WEIGHTS, INFINITE,
                                  KRONROD_NODES, KRONROD_WEIGHTS, LIMIT,
                                  MAX_SHELLS, UNDETERMINED, _ROUNDOFF,
                                  _drive, _first_rounds, _gk21_sums,
                                  _shell_edges, cell_quad, improper_integral,
                                  improper_integrals, span_integral,
                                  span_integrals)

ROOT = Path(__file__).resolve().parent.parent


def test_cell_quad_sine():
    assert cell_quad(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)


def test_first_rounds_are_exact_for_cubics():
    edges = np.array([0.0, 0.25, 0.6, 1.0])
    with np.errstate(all="ignore"):
        vals, _, _ = _first_rounds(lambda xs: 4.0 * xs ** 3 - xs,
                                   edges[:-1], edges[1:])
    exact = np.diff(edges ** 4 - edges ** 2 / 2.0)
    assert np.allclose(vals, exact, rtol=1e-14, atol=1e-16)
    assert vals.sum() == pytest.approx(0.5, abs=1e-14)


def _three(xs):
    return np.stack([np.exp(np.sin(3.0 * xs)), np.abs(xs - 0.3) + 1.0,
                     xs ** 3 + 2.0])


@pytest.mark.parametrize("n_cells", [1, 2, 7, 16, 100])
def test_first_rounds_equal_lone_cell_quads(n_cells):
    """Each cell of a _first_rounds call whose first round cell_quad would
    accept gets, bit for bit, the value of its own cell_quad, whatever
    the number of cells beside it; integrands given as rows of one call
    get the sums of a call each."""
    rng = np.random.default_rng(n_cells)
    edges = np.sort(rng.uniform(-2.0, 2.0, n_cells + 1))
    lo, hi = edges[:-1], edges[1:]
    with np.errstate(all="ignore"):
        val, err, mag = _first_rounds(_three, lo, hi)
        for row in range(3):
            alone = _first_rounds(lambda xs: _three(xs)[row], lo, hi)
            for got, want in zip((val, err, mag), alone):
                assert got[row].tobytes() == want.tobytes()
    accepted = err <= np.maximum(1e-8 * np.abs(val), _ROUNDOFF * mag)
    assert accepted.any()
    for row, k in zip(*np.nonzero(accepted)):
        want = cell_quad(lambda xs: _three(xs)[row], lo[k], hi[k])
        assert float(val[row, k]).hex() == want.hex(), (row, k)


def test_convergent_tail_at_infinity():
    res = improper_integral(lambda xs: xs ** -2.0, 1.0, math.inf)
    assert res.verdict == FINITE
    assert res.value == pytest.approx(1.0, abs=1e-5)


def test_divergent_log_tail_at_infinity():
    # 1/x contributes ln 2 per dyadic shell forever: the stall rule fires
    res = improper_integral(lambda xs: 1.0 / xs, 1.0, math.inf)
    assert res.verdict == INFINITE


def test_integrable_singularity_at_finite_endpoint():
    res = improper_integral(lambda xs: xs ** -0.5, 1.0, 0.0)
    assert res.verdict == FINITE
    assert res.value == pytest.approx(2.0, abs=1e-5)


def test_nonintegrable_singularity_at_finite_endpoint():
    res = improper_integral(lambda xs: 1.0 / xs, 1.0, 0.0)
    assert res.verdict == INFINITE


def test_growth_rule_catches_power_divergence():
    # shells of x grow fourfold: the stall rule fires at shell 8
    res = improper_integral(lambda xs: xs, 1.0, math.inf)
    assert res.verdict == INFINITE


def test_sign_flip_after_decay_is_undetermined():
    """A late sign flip means the integrand lost the endpoint resolution.

    Callers only pass single-signed integrands; a significant
    opposite-sign shell appearing after the contributions have decayed
    indicates the evaluations themselves went bad (for example a
    truncated limit constant swamping the true term), so no verdict is
    safe.
    """
    def f(xs):
        # behaves like x^-1.5 at first, then a corrupted negative tail
        out = xs ** -1.5
        out = np.where(xs > 4000.0, -1.0 / xs, out)
        return out

    res = improper_integral(f, 1.0, math.inf)
    assert res.verdict == UNDETERMINED
    assert "resolution" in res.note


def test_value_only_reported_meaningfully_when_finite():
    res = improper_integral(lambda xs: np.ones_like(xs), 1.0, math.inf)
    assert res.verdict == INFINITE


def test_gauss_nodes_are_the_ten_point_legendre_rule():
    on_gauss = GAUSS_WEIGHTS != 0.0
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.allclose(KRONROD_NODES[on_gauss], nodes, rtol=0, atol=1e-15)
    assert np.allclose(GAUSS_WEIGHTS[on_gauss], weights, rtol=0, atol=1e-15)
    assert KRONROD_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-15)


def test_kronrod_rule_is_exact_up_to_degree_31():
    rng = np.random.default_rng(31)
    for degree in range(32):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        rule = KRONROD_WEIGHTS @ KRONROD_NODES ** degree
        assert rule == pytest.approx(exact, rel=1e-13, abs=1e-13), degree
        # a full polynomial of that degree on an off-center cell
        poly = np.polynomial.Polynomial(rng.uniform(0.5, 1.5, degree + 1))
        want = poly.integ()(1.7) - poly.integ()(0.3)
        assert cell_quad(poly, 0.3, 1.7) == pytest.approx(want, rel=1e-13), degree


PANEL = {
    "smooth": (lambda x: np.exp(np.sin(3.0 * x)), 0.0, 2.0),
    "inv-sqrt-shell": (lambda x: x ** -0.5, 2.0 ** -21, 2.0 ** -20),
    "log-shell": (lambda x: np.log(x), 2.0 ** -31, 2.0 ** -30),
    "exp-tail-shell": (lambda x: np.exp(-x), 2.0 ** 4 - 1.0, 2.0 ** 5 - 1.0),
    "exp-far-tail-shell": (lambda x: np.exp(-x), 2.0 ** 7 - 1.0, 2.0 ** 8 - 1.0),
    "jump": (lambda x: np.where(x < 0.3, 1.0, 2.0 + x), 0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(PANEL))
def test_cell_quad_agrees_with_quadpack(name):
    fn, a, b = PANEL[name]
    want, _ = quad(lambda x: float(fn(np.array([x]))[0]), a, b,
                   epsabs=0.0, epsrel=1e-12, limit=LIMIT,
                   points=[0.3] if name == "jump" else None)
    assert cell_quad(fn, a, b, rel_tol=1e-12) == pytest.approx(want, rel=1e-10)


def test_smooth_cell_calls_fn_once_with_an_array():
    seen = []

    def fn(xs):
        seen.append(xs)
        return np.cos(xs)

    assert cell_quad(fn, 0.0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-14)
    assert len(seen) == 1
    assert isinstance(seen[0], np.ndarray) and seen[0].shape == (21,)


def test_cell_missing_its_tolerance_raises():
    # a million periods per subinterval: no bisection resolves them
    def fn(xs):
        return 2.0 + np.sin(1e9 * xs)

    with pytest.raises(QuadratureError, match="200 subintervals"):
        cell_quad(fn, 1.0, 2.0)
    res = improper_integral(lambda xs: fn(xs) / xs ** 2, 1.0, math.inf)
    assert res.verdict == UNDETERMINED
    assert res.note.startswith("quadrature failure")
    assert "subintervals" in res.note


def test_profile_arrays_match_the_scalar_loop():
    prof = Profile((-1.0, 0.0, 0.5, 2.0),
                   ((0.1, 1.0, -0.5, 0.25), (0.2, -1.0, 3.0, 0.0),
                    (1.0, 0.5, 0.0, -0.125)))
    us = np.concatenate([np.linspace(-2.0, 3.0, 101), [-1.0, 0.0, 0.5, 2.0],
                         [-math.inf, math.inf]])
    for method in (prof.value, prof.derivative):
        vals = method(us)
        assert isinstance(vals, np.ndarray) and vals.shape == us.shape
        loop = [method(float(u)) for u in us]
        assert all(isinstance(v, float) for v in loop)
        assert vals.tolist() == loop
    grid = us.reshape(1, -1)
    assert prof.value(grid).shape == grid.shape


def test_import_leaves_scipy_unloaded():
    code = "import shuntline, sys; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verdicts_workload_emits_no_warning():
    """One default pass of the benchmark's verdicts workload, the one
    bench/test_bench.py::test_verdicts_smoke runs, with every warning
    turned into an error: an operation that warns counts as failed."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import gen
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tally, _ = workloads.run("verdicts", 5, 0, False)
    assert tally.attempted >= workloads.MIN_VERDICT_OPS
    assert tally.failed == 0
    assert tally.undetermined == len(tally.rates) * gen.POOL_BORDERLINE


def _raises_beyond(limit):
    def fn(xs):
        if np.any(xs > limit):
            raise EvalError(f"expression undefined at x = {limit!r}")
        return xs ** -2.0
    return fn


# (fn, anchor, endpoint, rel_tol, verdict, note start)
SHELL_CASES = {
    "first-round": (lambda xs: xs ** -2.0, 1.0, math.inf, 1e-6, FINITE, ""),
    "first-round-finite-end": (lambda xs: xs ** -0.5, 1.0, 0.0, 1e-8,
                               FINITE, ""),
    # the jump at 5.3 sits inside shell 2, [3, 7]
    "bisection": (lambda xs: np.where(xs < 5.3, 1.0, 2.0) / xs ** 3, 1.0,
                  math.inf, 1e-6, FINITE, ""),
    # the center node of shell 2 is 5
    "non-finite": (lambda xs: 1.0 / (xs - 5.0) ** 2, 1.0, math.inf, 1e-6,
                   INFINITE, "non-finite shell"),
    # converges near shell 20; the first block past it raises
    "raises-past-the-stop": (_raises_beyond(2.0 ** 23), 1.0, math.inf, 1e-6,
                             FINITE, ""),
    "raises-on-a-reached-shell": (_raises_beyond(100.0), 1.0, math.inf, 1e-6,
                                  UNDETERMINED, "quadrature failure: "),
    "late-sign-flip": (lambda xs: np.where(xs > 4000.0, -1.0 / xs,
                                           xs ** -1.5),
                       1.0, math.inf, 1e-6, UNDETERMINED,
                       "endpoint resolution exhausted"),
    # shells shrink by 0.95 each: no rule fires within MAX_SHELLS
    "geometric-tail": (lambda xs: xs ** (math.log2(0.95) - 1.0), 1.0,
                       math.inf, 1e-6, FINITE, "geometric tail estimate"),
    # the same scaled by 1e6: a positive factor changes no verdict (the
    # running sum passes 1e6 while still growing by 5 % a shell)
    "scaled-geometric-tail": (lambda xs: 1e6 * xs ** (math.log2(0.95) - 1.0),
                              1.0, math.inf, 1e-6, FINITE,
                              "geometric tail estimate"),
    # ln 2 * 1e7 a shell forever
    "scaled-log-divergence": (lambda xs: 1e7 / xs, 1.0, math.inf, 1e-6,
                              INFINITE, "non-decaying shells"),
    # twelve shells of width 2^-41, 2^-42, ... reach the resolution of 1.0
    "width-underflow": (lambda xs: np.ones_like(xs), 1.0, 1.0 + 2.0 ** -40,
                        1e-6, UNDETERMINED, "shell width underflow"),
    # shell 47 rounds to zero width, shell 48 does not: the shells end at
    # the first, mid-block
    "width-underflow-mid-block": (lambda xs: np.ones_like(xs),
                                  1.0 + 2.0 ** -52 - 2.0 ** -5,
                                  1.0 + 2.0 ** -52, 1e-16, UNDETERMINED,
                                  "shell width underflow"),
    "non-decaying": (lambda xs: xs, 1.0, math.inf, 1e-6, INFINITE,
                     "non-decaying shells"),
    "cap": (lambda xs: np.exp(xs), 1.0, math.inf, 1e-6, INFINITE,
            "cap exceeded"),
}


def _as_bits(res):
    return res.verdict, res.value.hex(), res.shells, res.note


@pytest.mark.parametrize("name", sorted(SHELL_CASES))
def test_blocked_shells_match_one_shell_per_call(name, monkeypatch):
    """Blocks change which integrand calls are made, never the numbers the
    stopping policy sees: verdict, value bits, shells and note are those
    of blocks of one shell (which the next test holds to cell_quad)."""
    from shuntline import quadrature
    fn, anchor, endpoint, rel_tol, verdict, note = SHELL_CASES[name]
    blocked = improper_integral(fn, anchor, endpoint, rel_tol)
    assert blocked.verdict == verdict
    assert blocked.note.startswith(note)
    monkeypatch.setattr(quadrature, "_BLOCK", 1)
    single = improper_integral(fn, anchor, endpoint, rel_tol)
    assert _as_bits(blocked) == _as_bits(single)


def _recorder(out):
    """A consumer for _drive that appends every shell value to out (the
    value, or the exception raised) and never stops before the shells
    run out."""
    values, start, stop, refine = yield
    while start < stop:
        out.extend(refine(i) if values[i] is None else values[i]
                   for i in range(start, stop))
        values, start, stop, refine = yield


def _shell_values(fn, anchor, endpoint, rel_tol):
    """The value of every shell _drive reaches from the anchor."""
    out = []
    consumer = _recorder(out)
    next(consumer)
    _drive(fn, [anchor], endpoint, rel_tol, [consumer])
    return out


@pytest.mark.parametrize("name", sorted(SHELL_CASES))
def test_shell_values_equal_one_cell_quad_per_shell(name):
    """Every shell the block driver yields is, bit for bit, cell_quad on
    that shell at the shell tolerance, or an exception of the type (and
    with the message) cell_quad raises there."""
    fn, anchor, endpoint, rel_tol, _, _ = SHELL_CASES[name]
    tol = min(rel_tol, 1e-8)
    values = _shell_values(fn, anchor, endpoint, tol)
    reached = 0
    while reached < MAX_SHELLS:
        lo, hi = _shell_edges(anchor, endpoint, reached)
        if not lo < hi:
            break
        reached += 1
    assert len(values) == reached
    for k, value in enumerate(values):
        try:
            want = cell_quad(fn, *map(float, _shell_edges(anchor, endpoint, k)),
                             tol)
        except Exception as exc:
            assert type(value) is type(exc), k
            assert str(value) == str(exc), k
        else:
            assert isinstance(value, float), k
            assert value.hex() == want.hex(), k


def test_block_edges_equal_the_scalar_shell_edges():
    """One vectorised step gives, bit for bit, the edges of the scalar
    formula, 2.0 ** k in Python floats, for every shell and anchor."""
    ks = np.arange(MAX_SHELLS + 1)
    for anchor, endpoint in [(1.0, math.inf), (-0.3, -math.inf), (1.0, 0.0),
                             (0.1, 0.7), (2.5, -1.0), (1e-300, 0.0)]:
        lo, hi = _shell_edges(np.array([[anchor]]), endpoint, ks)
        for k in ks.tolist():
            if math.isinf(endpoint):
                sign = 1.0 if endpoint > 0 else -1.0
                a = anchor + sign * (2.0 ** k - 1.0)
                b = anchor + sign * (2.0 ** (k + 1) - 1.0)
                want = (a, b) if sign > 0 else (b, a)
            else:
                width = endpoint - anchor
                near = endpoint - width * 2.0 ** (-k - 1)
                far = endpoint - width * 2.0 ** (-k)
                want = (far, near) if width > 0 else (near, far)
            got = (float(lo[0, k]), float(hi[0, k]))
            assert [v.hex() for v in got] == [v.hex() for v in want], k


def _second_anchor(anchor, endpoint):
    return anchor + 0.5 if math.isinf(endpoint) else 0.5 * (anchor + endpoint)


@pytest.mark.parametrize("name", sorted(SHELL_CASES))
def test_anchors_batched_equal_one_anchor_at_a_time(name):
    """Two anchors toward one endpoint, in either order, share integrand
    calls but get the verdict, value bits, shells and note each gets
    alone."""
    fn, anchor, endpoint, rel_tol, _, _ = SHELL_CASES[name]
    other = _second_anchor(anchor, endpoint)
    alone = [_as_bits(improper_integral(fn, a, endpoint, rel_tol))
             for a in (anchor, other)]
    both = improper_integrals(fn, [anchor, other], endpoint, rel_tol)
    assert [_as_bits(r) for r in both] == alone
    both = improper_integrals(fn, [other, anchor], endpoint, rel_tol)
    assert [_as_bits(r) for r in both] == alone[::-1]


def test_one_integrand_call_per_block_for_both_anchors():
    """Two anchors whose shells are all accepted in their first rounds
    cost one integrand call per block, holding both anchors' shells."""
    sizes = []

    def counted(xs):
        sizes.append(xs.size)
        return xs ** -2.0

    alone = [improper_integral(counted, a, math.inf) for a in (1.0, 1.5)]
    calls_alone = len(sizes)
    sizes.clear()
    both = improper_integrals(counted, [1.0, 1.5], math.inf)
    assert [_as_bits(r) for r in both] == [_as_bits(r) for r in alone]
    shells = max(r.shells for r in both)
    assert len(sizes) == math.ceil(shells / 16) < calls_alone
    assert sizes[0] == 2 * 16 * 21


def test_a_shell_that_raises_fails_only_its_own_anchor():
    """An integrand that raises on one anchor's shells alone gives that
    anchor the quadrature failure it gets alone, and leaves the other
    anchor's result unchanged, bit for bit."""
    def fn(xs):
        if np.any(xs < 0.0):
            raise EvalError(f"expression undefined at x = {float(xs.min())!r}")
        return xs ** -0.5

    alone = [_as_bits(improper_integral(fn, a, 0.0)) for a in (1.0, -1.0)]
    assert alone[0][0] == FINITE
    assert alone[1][0] == UNDETERMINED
    assert alone[1][3].startswith("quadrature failure: ")
    both = improper_integrals(fn, [1.0, -1.0], 0.0)
    assert [_as_bits(r) for r in both] == alone


def test_first_round_acceptance_at_the_edge_of_its_tolerance():
    """A shell whose first-round error equals its tolerance is accepted
    from the block; one ulp of rel_tol lower, it is bisected."""
    from shuntline import quadrature
    fn = SHELL_CASES["bisection"][0]
    lo, hi = _shell_edges(1.0, math.inf, 2)  # holds the jump
    with np.errstate(all="ignore"):
        val, err, _ = (float(a[0]) for a in
                       quadrature._gk21(fn, np.array([lo]), np.array([hi])))
    edge = err / abs(val)
    while edge * abs(val) < err:
        edge = np.nextafter(edge, 1.0)
    while np.nextafter(edge, 0.0) * abs(val) >= err:
        edge = np.nextafter(edge, 0.0)
    below = np.nextafter(edge, 0.0)
    assert cell_quad(fn, lo, hi, edge) == val
    assert cell_quad(fn, lo, hi, below) != val
    for tol in (edge, below):
        shells = list(itertools.islice(
            _shell_values(fn, 1.0, math.inf, tol), 3))
        assert shells[2].hex() == cell_quad(fn, lo, hi, tol).hex()


def test_stacked_block_sums_equal_lone_row_sums():
    """Each row of a block summed in one stacked product gets, byte for
    byte, the sums of that row summed alone: the first round of its own
    cell_quad.  The shells' bit identity rests on this."""
    rng = np.random.default_rng(20)
    with np.errstate(all="ignore"):
        for _ in range(1000):
            n = int(rng.integers(1, 17))
            size = 10.0 ** rng.uniform(-8.0, 8.0, (n, 1))
            f = size * rng.standard_normal((n, 21))
            signed = rng.random(n) < 0.5  # single-signed rows, as integrands are
            f[signed] = np.abs(f[signed])
            half = 10.0 ** rng.uniform(-8.0, 8.0, n)
            block = _gk21_sums(f[:, None, :], half[:, None])
            for i in range(n):
                lone = _gk21_sums(f[i:i + 1].copy(), half[i:i + 1])
                for got, want in zip(block, lone):
                    assert got[i].tobytes() == want.tobytes()


def test_tail_probe_runs_at_the_shell_tolerance(monkeypatch):
    """The geometric-tail probe integrates its cell at the tolerance of
    the shells, min(rel_tol, 1e-8), so a tighter rel_tol holds there too."""
    from shuntline import quadrature
    fn, anchor, endpoint, _, verdict, note = SHELL_CASES["geometric-tail"]
    tols = []

    def recorded(fn, a, b, rel_tol=1e-8):
        tols.append(rel_tol)
        return cell_quad(fn, a, b, rel_tol)

    monkeypatch.setattr(quadrature, "cell_quad", recorded)
    res = improper_integral(fn, anchor, endpoint, 1e-10)
    assert (res.verdict, res.shells, res.note) == (verdict, MAX_SHELLS, note)
    assert tols == [1e-10]
    # the integral of x^(a - 1) over (1, inf) is -1/a
    assert res.value == pytest.approx(-1.0 / math.log2(0.95), rel=1e-12)


@pytest.mark.parametrize("name, refined", [("first-round", False),
                                           ("bisection", True),
                                           ("geometric-tail", False)])
def test_one_integrand_call_per_block(name, refined, monkeypatch):
    """At most one call per block of shells, plus the bisection rounds of
    the shells that miss their tolerance in the first round."""
    from shuntline import quadrature
    fn, anchor, endpoint, rel_tol, _, _ = SHELL_CASES[name]

    def calls_of(block):
        sizes = []

        def counted(xs):
            sizes.append(xs.size)
            return fn(xs)

        monkeypatch.setattr(quadrature, "_BLOCK", block)
        improper_integral(counted, anchor, endpoint, rel_tol)
        return sizes

    single = calls_of(1)
    # one 21-node first round per shell reached; bisection rounds have an
    # even number of intervals
    shells = single.count(21)
    refined_rounds = len(single) - shells
    batched = calls_of(quadrature._BLOCK)
    assert len(batched) <= math.ceil(shells / quadrature._BLOCK) + refined_rounds
    assert (refined_rounds > 0) == refined


def test_span_batch_equals_one_span_at_a_time():
    """Plain cells, improper ends toward shared endpoints from several
    anchors, and a repeated span: each result has the bits of its own
    span_integral, and the repeated span costs nothing more."""
    spans = [(0.0, 1.0, False, False), (0.0, 2.0, True, False),
             (0.0, 4.0, True, False), (0.25, 3.0, False, False),
             (0.0, 2.0, True, False), (1.0, math.inf, False, False),
             (-math.inf, 0.5, False, False), (2.0, 4.0, False, True),
             (0.5, 2.0, False, False)]
    sizes = []

    def fn(xs):
        sizes.append(xs.size)
        return np.abs(xs) ** -0.5 + np.exp(-np.abs(xs))

    alone = [_as_bits(span_integral(fn, *span)) for span in spans]
    calls_alone = len(sizes)
    sizes.clear()
    batch = span_integrals(fn, spans)
    assert [_as_bits(r) for r in batch] == alone
    assert batch[1] is batch[4]
    # the plain cells of (0, 1), (0.25, 3) and (0.5, 2) in one call
    assert sizes[0] == 3 * 21
    assert len(sizes) < calls_alone - 4


def test_a_plain_cell_that_misses_its_tolerance_fails_only_its_span():
    """A plain cell's QuadratureError is its span's result in the batch,
    the error span_integral raises; the other spans are unchanged."""
    def fn(xs):
        return np.where(xs > 5.0, 2.0 + np.sin(1e9 * xs), 1.0 / (1.0 + xs))

    spans = [(0.0, 1.0, False, False), (6.0, 7.0, False, False),
             (0.0, 1.0, True, False)]
    batch = span_integrals(fn, spans)
    assert isinstance(batch[1], QuadratureError)
    with pytest.raises(QuadratureError) as alone:
        span_integral(fn, *spans[1])
    assert str(batch[1]) == str(alone.value)
    for span, res in zip(spans[::2], batch[::2]):
        assert _as_bits(res) == _as_bits(span_integral(fn, *span))
