"""Embedded-chain simulator: geometry, statuses, estimators, determinism."""

import collections
import functools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shuntline import ChainBuildError, DomainError, get_example, parse_spec
from shuntline import chain, simulate
from shuntline.expr import evaluate
from shuntline.quadrature import cell_quad
from shuntline.simulate import (MODE_FULL, MODE_KILLED, MODE_PART,
                                STATUS_NAMES, analytic_hitting,
                                build_chain, estimate_hitting,
                                estimate_symmetry_defect, run, simulate_path)

from conftest import exact_walk, reference_walk, spec_from


def status_counter(out):
    return collections.Counter(STATUS_NAMES[s] for s in out["status"])


def test_unit_scale_chain_geometry():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    walk = ch.kind == 0
    assert np.allclose(np.diff(np.sort(ch.x[walk])), 0.05, atol=1e-12)
    # natural scale, flat density: the classical h^2 clock
    assert np.allclose(ch.tau[walk], 0.05 ** 2, rtol=1e-12)


def test_cubic_scale_reproduces_scale_ratio():
    spec = parse_spec({"name": "cubic", "pieces": [
        {"kind": "regular_interval", "a": "-inf", "b": "inf",
         "scale": "x^3", "speed": {"density": "2"}}]})
    assert analytic_hitting(spec, 0.5, 0.0, 1.0) == pytest.approx(0.125,
                                                                  rel=1e-12)
    ch = build_chain(spec, (0.0, 1.0), 0.01)
    est = estimate_hitting(ch, 0.5, 1.0, 50.0, 4000, seed=21)
    assert est["ci_low"] <= 0.125 <= est["ci_high"]
    assert abs(est["estimate"] - 0.125) < 0.02


def test_analytic_hitting_refuses_ends_outside_the_start_piece():
    # exa1's shunt at 0 pushes paths right (the true value is 1), and exa2's
    # trap at 0 absorbs them first; x0's scale ratio, 0.75, is neither
    for name in ("exa1", "exa2"):
        with pytest.raises(DomainError, match="x0's piece"):
            analytic_hitting(get_example(name), 0.5, -1.0, 1.0)
    # a start outside (a, c), and one on exa1's shunt point or on drift's
    # shunt segment, where no scale ratio applies
    with pytest.raises(DomainError, match="^need a < x0 < c$"):
        analytic_hitting(get_example("bm"), 1.5, 0.0, 1.0)
    for name, x0 in (("exa1", 0.0), ("drift", 0.5)):
        with pytest.raises(DomainError, match="needs a regular piece"):
            analytic_hitting(get_example(name), x0, x0 - 1.0, x0 + 1.0)
    # ends on the piece's own endpoints are inside its closure
    assert analytic_hitting(get_example("exa2"), 0.25, 0.0, 1.0) == 0.25


@pytest.mark.parametrize("doc, exit_time", [
    ("bm", lambda x: x * (1.0 - x)),
    ("cubic", lambda x: 1.5 * x ** 3 * (1.0 - x)),
], ids=["bm", "cubic"])
def test_exact_chain_matches_scale_ratio_and_green_function(
        doc, exit_time, cubic_scale_doc):
    # hitting probabilities are scale ratios and mean exit times are
    # integrals of the Green function against the speed measure, exactly
    # at the nodes: x(1 - x) for bm, and for scale x^3 with density 2 on
    # (0, 1), 2 [(1 - x^3) x^4 / 4 + x^3 (3/4 - x + x^4 / 4)]
    # = 1.5 x^3 (1 - x)
    spec = get_example(doc) if doc == "bm" else parse_spec(cubic_scale_doc)
    ch = build_chain(spec, (0.0, 1.0), 0.02)
    nodes, hit, mean_exit = exact_walk(ch)
    x = ch.x[nodes]
    ratio = [analytic_hitting(spec, xi, 0.0, 1.0) for xi in x]
    assert np.max(np.abs(hit - ratio)) < 1e-12
    assert np.max(np.abs(mean_exit - exit_time(x))) < 1e-12


@pytest.mark.parametrize("window, h", [((0.0, 1.0), 0.01), ((1.0, 2.0), 0.01),
                                       ((10.0, 11.0), 0.5)])
def test_cubic_holding_times_match_the_green_function(window, h,
                                                      cubic_scale_doc):
    """Every walk node's tau is, to 5e-13 relative, the exact Green-function
    integral over its two cells, taking the chain's own float x and u as
    exact: for scale x^3 and density 2, A = 2 [y^4 / 4 - u_l y] from x_l
    to x, B = 2 [u_r y - y^4 / 4] from x to x_r, and
    tau = (A (u_r - u) + B (u - u_l)) / (u_r - u_l)."""
    ch = build_chain(parse_spec(cubic_scale_doc), window, h)
    worst = 0
    for i in np.flatnonzero(ch.kind == simulate.WALK):
        nodes = (ch.nbr_left[i], i, ch.nbr_right[i])
        (xl, xm, xr), (ul, um, ur) = ([Fraction(float(v[j])) for j in nodes]
                                      for v in (ch.x, ch.u))
        a = 2 * ((xm ** 4 - xl ** 4) / 4 - ul * (xm - xl))
        b = 2 * (ur * (xr - xm) - (xr ** 4 - xm ** 4) / 4)
        tau = (a * (ur - um) + b * (um - ul)) / (ur - ul)
        worst = max(worst, abs(Fraction(float(ch.tau[i])) / tau - 1))
    assert worst < 5e-13


def test_holding_cells_are_cell_quad_of_their_integrands():
    """On exa1's cells, A and B of the chain builder are, bit for bit,
    cell_quad of (s - u_k) rho and (u_k+1 - s) rho on each cell."""
    spec = get_example("exa1")
    piece = spec.pieces[2]
    ch = build_chain(spec, (0.0, 1.0), 0.05)
    order = np.argsort(ch.x)
    x, u = ch.x[order], ch.u[order]
    A, B, _ = chain._regular_cells(piece, x, u)

    def s(y):
        return np.asarray(evaluate(piece.scale, y), dtype=np.float64)

    def rho(y):
        return np.asarray(evaluate(piece.speed.density, y), dtype=np.float64)

    for k in range(len(x) - 1):
        lo, hi = u[k], u[k + 1]
        for got, fn in ((A[k], lambda y: (s(y) - lo) * rho(y)),
                        (B[k], lambda y: (hi - s(y)) * rho(y))):
            assert got.hex() == cell_quad(fn, x[k], x[k + 1]).hex(), k


def test_hitting_estimate_covers_the_exact_chain_value(cubic_scale_doc):
    ch = build_chain(parse_spec(cubic_scale_doc), (0.0, 1.0), 0.01)
    nodes, hit, _ = exact_walk(ch)
    k = len(nodes) // 2
    est = estimate_hitting(ch, float(ch.x[nodes[k]]), 1.0, 50.0, 4000,
                           seed=21)
    assert est["ci_low"] <= hit[k] <= est["ci_high"]


def test_exit_time_mean_matches_closed_form():
    # expected exit time of the unit diffusion from (0, 1) started at x
    # is x(1 - x)
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.02)
    out = run(ch, x0=0.3, t_max=50.0, n_rep=3000, seed=5,
              mode="part_on_window")
    assert status_counter(out)["alive"] == 0
    times = out["final_time"]
    se = times.std() / math.sqrt(len(times))
    assert abs(times.mean() - 0.21) <= 4.0 * se + 1e-3
    # exponential holding changes the clock law, not its mean
    out2 = run(ch, x0=0.3, t_max=50.0, n_rep=3000, seed=6,
               mode="part_on_window", exponential_holding=True)
    se2 = out2["final_time"].std() / math.sqrt(3000)
    assert abs(out2["final_time"].mean() - 0.21) <= 4.0 * se2 + 1e-3


def test_one_way_segment_moves_at_unit_speed():
    ch = build_chain(get_example('drift'), (-1.0, 1.0), 0.01)
    path = simulate_path(ch, 0.0, 0.7, seed=3)
    xs = list(path.positions)
    assert all(b >= a - 1e-12 for a, b in zip(xs, xs[1:]))
    assert path.status == "alive"
    assert xs[-1] == pytest.approx(0.7, abs=0.02)
    # longer horizon: the path crosses the window edge and is killed
    path2 = simulate_path(ch, 0.0, 2.0, seed=3)
    assert path2.status == "killed_at_window"
    assert path2.times[-1] == pytest.approx(1.0, abs=0.02)


def test_trap_statuses_full_versus_killed():
    ch = build_chain(get_example('exa2'), (-1.0, 2.0), 0.05)
    full = run(ch, x0=0.5, t_max=1.0, n_rep=400, seed=9, mode="full")
    killed = run(ch, x0=0.5, t_max=1.0, n_rep=400, seed=9,
                 mode="killed_at_traps")
    # same randomness, same classification of every path
    assert np.array_equal(full["status"], killed["status"])
    ab = full["status"] == 3
    assert ab.sum() > 100
    # freezing reports the horizon, killing reports the absorption time
    assert np.all(full["final_time"][ab] == 1.0)
    assert np.all(killed["final_time"][ab] < 1.0)
    assert np.allclose(ch.x[full["final_node"][ab]], 0.0)


def test_absorption_probability_tracks_scale_ratio():
    # from x in (0, 2) the chance of absorbing at 0 before exiting at 2
    # is 1 - x/2 for natural scale
    ch = build_chain(get_example('exa2'), (-1.0, 2.0), 0.05)
    out = run(ch, x0=0.5, t_max=200.0, n_rep=2000, seed=14,
              mode="killed_at_traps")
    c = status_counter(out)
    assert c["alive"] == 0
    p = c["absorbed_at_trap"] / 2000.0
    assert p == pytest.approx(0.75, abs=0.03)


def test_window_edge_kills_even_at_reflecting_endpoint():
    """Windows are open intervals: their edges kill the part process,
    even where the full model would reflect.  A window that strictly
    contains the reflecting endpoint keeps the reflection."""
    ar = get_example('absorb-reflect')
    edge = build_chain(ar, (-0.5, 1.0), 0.05)
    o1 = run(edge, x0=0.9, t_max=4.0, n_rep=300, seed=13,
             mode="killed_at_traps")
    assert status_counter(o1)["killed_at_window"] > 150

    wide = build_chain(ar, (-0.5, 1.5), 0.05)
    o2 = run(wide, x0=0.9, t_max=4.0, n_rep=300, seed=13,
             mode="killed_at_traps")
    c2 = status_counter(o2)
    assert c2["killed_at_window"] == 0
    assert c2["absorbed_at_trap"] > 250
    # reflection caps every path at the included endpoint
    top = max(max(simulate_path(wide, 0.9, 4.0, seed=13, rep=r).positions)
              for r in range(30))
    assert top <= 1.0 + 1e-12


def test_chain_build_refusals():
    drift = get_example('drift')
    with pytest.raises(ChainBuildError):
        build_chain(drift, (-math.inf, math.inf), 0.05)
    bm = get_example('bm')
    for h in (0.0, -0.05, math.nan):
        with pytest.raises(DomainError, match="h must be positive"):
            build_chain(bm, (0.0, 1.0), h)
    for window in ((1.0, 0.0), (0.5, 0.5)):
        with pytest.raises(DomainError, match="window must be an interval"):
            build_chain(bm, window, 0.05)
    with pytest.raises(ChainBuildError):
        build_chain(get_example('split-bm'), (-math.inf, math.inf), 0.05)
    part = spec_from([
        {"kind": "shunt_segment", "a": "-inf", "b": "0",
         "direction": "right", "reach": "partial:-1"},
        {"kind": "singular_point", "x": "0", "class": "right_shunt"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "x/2", "speed": {"density": "2"}}])
    with pytest.raises(ChainBuildError):
        build_chain(part, (-2.0, 1.0), 0.05)
    # a grid node's scale value beyond the scale's bound toward an
    # infinite end: the bisection finds no bracket for it
    for scale, target, lo, hi, word in (
            ("1 - exp(-x)", 2.0, 0.0, math.inf, "+inf"),
            ("exp(x) - 1", -2.0, -math.inf, 0.0, "-inf")):
        piece = spec_from([{"kind": "regular_interval", "a": "-inf",
                            "b": "inf", "scale": scale,
                            "speed": {"density": "1"}}]).pieces[0]
        with pytest.raises(ChainBuildError, match=re.escape(
                f"cannot bracket scale inversion toward {word}")):
            chain._invert_scale(piece, [target], lo, hi)


@pytest.mark.parametrize("name, window, piece, edge", [
    ("split-bm", (0.0, 1.0), 2, 0.0),
    ("bessel-glue", (0.0, 1.0), 2, 0.0),
    ("nonradon", (0.0, 0.5), 2, 0.0),
    ("reflect-glue", (-1.0, 0.0), 0, 0.0),
])
def test_window_edge_on_an_endpoint_of_unbounded_scale_is_refused(
        name, window, piece, edge, reflect_glue_doc):
    # the edge is a cut where the scale is -inf (or +inf), so the walk
    # would need infinitely many cells
    spec = parse_spec(reflect_glue_doc) if name == "reflect-glue" \
        else get_example(name)
    with pytest.raises(ChainBuildError) as exc:
        build_chain(spec, window, 0.05)
    assert str(exc.value) == (
        f"piece {piece}: window edge {edge} falls on a piece endpoint where "
        f"the scale is unbounded; move the window edge off the endpoint")


def test_infinite_edge_allowed_when_reachable_in_finite_time():
    spec = spec_from([
        {"kind": "trap_segment", "a": "-inf", "b": "0"},
        {"kind": "singular_point", "x": "0", "class": "trap"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "-1/x", "speed": {"density": "1/x^4"}}])
    ch = build_chain(spec, (0.5, math.inf), 0.02)
    out = run(ch, x0=1.0, t_max=20.0, n_rep=200, seed=4,
              mode="killed_at_traps")
    c = status_counter(out)
    assert c["dead_at_infinite_endpoint"] > 50
    assert c["dead_at_infinite_endpoint"] + c["killed_at_window"] == 200


def test_infinite_window_reaches_the_infinite_end_at_the_scale_ratio():
    # the scale -1/x is bounded toward +inf: from 2 the walk reaches +inf
    # before 1 with probability (s(2) - s(1)) / (s(inf) - s(1)) = 1/2
    spec = spec_from([
        {"kind": "trap_segment", "a": "-inf", "b": "0"},
        {"kind": "singular_point", "x": "0", "class": "trap"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "-1/x", "speed": {"density": "1/x"}}])
    ch = build_chain(spec, (1.0, math.inf), 0.02)
    est = estimate_hitting(ch, 2.0, math.inf, 1e6, 4000, seed=1)
    assert est["ci_low"] <= 0.5 <= est["ci_high"]
    out = run(ch, x0=2.0, t_max=1e6, n_rep=4000, seed=1)
    c = status_counter(out)
    assert c["dead_at_infinite_endpoint"] == est["hits"]
    assert c["killed_at_window"] == 4000 - est["hits"]


def test_run_refuses_starts_that_are_not_node_indices():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    assert ch.n_nodes == 21
    for starts in ([-1], [21], [0.0], [[0]]):
        with pytest.raises(DomainError):
            run(ch, starts=starts, t_max=0.1)
    out = run(ch, starts=[0, 20], t_max=0.1)
    assert out["final_node"].shape == (2,)


def test_defect_refuses_negative_or_non_finite_weights():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    for bad in (-1.0, math.nan, math.inf):
        w = np.zeros(ch.n_nodes)
        w[3] = 2.0
        w[10] = bad
        with pytest.raises(DomainError):
            estimate_symmetry_defect(ch, abs, abs, 0.1, 10, weights=w)
    # a wrong shape, and weights with no mass to draw starts from
    for w in (np.ones(ch.n_nodes - 1), np.ones((1, ch.n_nodes)),
              np.zeros(ch.n_nodes)):
        with pytest.raises(DomainError):
            estimate_symmetry_defect(ch, abs, abs, 0.1, 10, weights=w)


def test_defect_refuses_weight_names_other_than_lebesgue():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    # sequences that are not numbers, and bytes, are not weights either
    for bad in ("speed", "Lebesgue", "", ["a"] * ch.n_nodes, b"lebesgue"):
        with pytest.raises(DomainError,
                           match="None, 'lebesgue' or one value per node"):
            estimate_symmetry_defect(ch, abs, abs, 0.1, 10, weights=bad)


def test_parallel_runs_are_byte_identical():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.02)
    a = run(ch, x0=0.4, t_max=0.5, n_rep=4000, seed=77, n_jobs=1)
    b = run(ch, x0=0.4, t_max=0.5, n_rep=4000, seed=77, n_jobs=8)
    for key in ("final_node", "final_time", "status", "hit"):
        assert np.array_equal(a[key], b[key]), key


def test_scalar_path_engine_matches_vector_engine():
    # walk nodes, the deterministic shunt point of exa1, and both clocks
    for example, window, x0, t_max in (("bm", (0.0, 1.0), 0.3, 0.4),
                                       ("exa1", (-2.5, 2.5), -0.2, 1.0)):
        ch = build_chain(get_example(example), window, 0.05)
        for expo in (False, True):
            out = run(ch, x0=x0, t_max=t_max, n_rep=16, seed=31,
                      exponential_holding=expo)
            for rep in range(16):
                path = simulate_path(ch, x0, t_max, seed=31, rep=rep,
                                     exponential_holding=expo)
                assert ch.x[out["final_node"][rep]] == pytest.approx(
                    path.positions[-1], abs=1e-12)
                assert out["final_time"][rep] == pytest.approx(
                    path.times[-1], abs=1e-12)
                assert STATUS_NAMES[out["status"][rep]] == path.status


# A trap at 0, a walk on (0, 1), a shunt point at 1 entering (1, inf), and
# a walk on (1, inf) that reaches +inf in finite time.  Window (0, inf)
# gives DET, KILL_WINDOW, WALK and KILL_INF nodes; (-0.5, 3) gives TRAP,
# DET, WALK and KILL_WINDOW nodes.
MIXED = [
    {"kind": "trap_segment", "a": "-inf", "b": "0"},
    {"kind": "singular_point", "x": "0", "class": "trap"},
    {"kind": "regular_interval", "a": "0", "b": "1",
     "scale": "x", "speed": {"density": "2"}},
    {"kind": "singular_point", "x": "1", "class": "right_shunt"},
    {"kind": "regular_interval", "a": "1", "b": "inf",
     "scale": "-1/x", "speed": {"density": "1/x^4"}}]
MIXED_WINDOWS = ((0.0, math.inf), (-0.5, 3.0))
ENGINE_KEYS = ("final_node", "final_time", "status", "hit")


def _reference_run(ch, starts, seed, t_max, mode, expo, target_node):
    keys = simulate._rep_key(seed, np.arange(len(starts)))
    cap = simulate._step_cap(ch, t_max, expo)
    walks = [reference_walk(ch, s, keys[r], t_max, mode, expo, target_node,
                            cap) for r, s in enumerate(starts)]
    dtypes = (np.int64, np.float64, np.int8, bool)
    return {key: np.array([w[i] for w in walks], dtype=dtype)
            for i, (key, dtype) in enumerate(zip(ENGINE_KEYS, dtypes))}, walks


def _recorded(fn, *args, **kw):
    """The result of one engine call and the messages of its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kw)
    return out, [str(w.message) for w in caught]


@pytest.mark.parametrize("window", MIXED_WINDOWS)
@pytest.mark.parametrize("cap", [None, 7])
def test_run_equals_the_reference_walker(monkeypatch, window, cap):
    """Every mode, with and without a target (on a walk node and on the
    shunt point) and exponential holding, at engine block sizes 1, 5 and
    8192 and at a step cap that falls inside a block: the arrays of
    ``run`` equal those of the one-step walker byte for byte."""
    ch = build_chain(spec_from(MIXED), window, 0.1)
    kinds = set(ch.kind.tolist())
    assert {simulate.WALK, simulate.DET, simulate.KILL_WINDOW} <= kinds
    assert kinds & {simulate.TRAP_NODE, simulate.KILL_INF}
    if cap is not None:
        monkeypatch.setattr(simulate, "_step_cap", lambda *args: cap)
    starts = np.arange(3 * ch.n_nodes) % ch.n_nodes
    for mode in (MODE_FULL, MODE_KILLED, MODE_PART):
        for target in (None, 0.6, 1.0):
            target_node = -1 if target is None else ch.node_at(target)
            for expo in (False, True):
                want, walks = _reference_run(ch, starts, 5, 0.25, mode,
                                             expo, target_node)
                capped = sum(w[4] for w in walks)
                assert (capped > 0) == (cap is not None)
                for block in (1, 5, 8192):
                    monkeypatch.setattr(simulate, "_BLOCK", block)
                    out, caught = _recorded(
                        run, ch, starts=starts, t_max=0.25, seed=5, mode=mode,
                        exponential_holding=expo, target=target)
                    assert caught == ([f"{capped} replication(s) stopped at "
                                       f"the step cap ({cap}) before t_max; "
                                       f"they are reported alive at t_max"]
                                      if capped else [])
                    for key in ENGINE_KEYS:
                        assert out[key].tobytes() == want[key].tobytes(), (
                            mode, target, expo, block, key)


@pytest.mark.parametrize("window", MIXED_WINDOWS)
@pytest.mark.parametrize("cap", [None, 7])
def test_simulate_path_equals_the_reference_walker(monkeypatch, window, cap):
    """The trace of ``simulate_path`` is the walker's start, every move and
    the closing (final time, position) when the path ends after its last
    move, also when the step cap cuts the walk inside an engine block."""
    ch = build_chain(spec_from(MIXED), window, 0.1)
    if cap is not None:
        monkeypatch.setattr(simulate, "_step_cap", lambda *args: cap)
    keys = simulate._rep_key(3, np.arange(12))
    ends = collections.Counter()
    for mode in (MODE_FULL, MODE_KILLED, MODE_PART):
        for expo in (False, True):
            for rep in range(12):
                node, t_end, status, _, capped, times, nodes = reference_walk(
                    ch, ch.node_at(0.6), keys[rep], 0.25, mode, expo, -1,
                    simulate._step_cap(ch, 0.25, expo))
                ends[STATUS_NAMES[status], capped] += 1
                if t_end > times[-1]:
                    times, nodes = times + [t_end], nodes + [node]
                for block in (1, 5, 8192):
                    monkeypatch.setattr(simulate, "_BLOCK", block)
                    path, caught = _recorded(
                        simulate_path, ch, 0.6, 0.25, seed=3, rep=rep,
                        mode=mode, exponential_holding=expo)
                    assert len(caught) == capped
                    assert path.status == STATUS_NAMES[status]
                    assert path.times.tobytes() == np.array(times).tobytes()
                    assert path.positions.tobytes() == ch.x[nodes].tobytes()
    if cap is None:  # the horizon and a terminal node both end some paths
        assert ends["alive", False] and len(ends) >= 2
    else:
        assert ends["alive", True]


class _CountingAdd:
    def __init__(self, calls):
        self.calls = calls

    def __call__(self, *args, **kw):
        self.calls["row add"] += 1
        return np.add(*args, **kw)

    def accumulate(self, *args, **kw):
        self.calls["accumulate"] += 1
        return np.add.accumulate(*args, **kw)


class _CountingNumpy:
    """numpy as the engine module sees it, counting the row adds and the
    accumulates of its clock sums, the ``flatnonzero`` calls of its
    compactions, the ``einsum`` that packs the coins of each block walked
    by words and the ``unpackbits`` that starts each build of the word
    tables."""

    def __init__(self):
        self.calls = collections.Counter()
        self.add = _CountingAdd(self.calls)

    def flatnonzero(self, a):
        self.calls["compaction"] += 1
        return np.flatnonzero(a)

    def einsum(self, *args, **kw):
        self.calls["word block"] += 1
        return np.einsum(*args, **kw)

    def unpackbits(self, *args, **kw):
        self.calls["word table"] += 1
        return np.unpackbits(*args, **kw)

    def __getattr__(self, name):
        return getattr(np, name)


# Both start in the middle of bm's window.  2 048 replications walk blocks
# of 8 steps, wide enough for clocks summed by rows; 10 cells from the
# edges, the first block of a deterministic clock ends no replication.
# 4 replications walk blocks of 256 steps, summed by one accumulate;
# 25 cells from the edges, the first block of this seed ends none of them.
@pytest.mark.parametrize("h, n_rep, t_max, first_block, sums", [
    (0.05, 2048, 0.03, (8, 2048), "row add"),
    (0.02, 4, 0.2, (256, 4), "accumulate")], ids=["wide", "narrow"])
def test_clock_sums_and_block_ends_equal_the_reference_walker(
        monkeypatch, h, n_rep, t_max, first_block, sums):
    """Clocks summed by rows and by one accumulate, and blocks that end
    some replications and none, give ``run`` the arrays of the one-step
    walker byte for byte in every mode, with and without exponential
    holding; a block compacts the active set only when one ends."""
    ch = build_chain(get_example('bm'), (0.0, 1.0), h)
    starts = np.full(n_rep, ch.node_at(0.5))
    counting = _CountingNumpy()
    # (steps, replications, whether one of them ended, compactions so far)
    blocks = []
    sum_clocks = simulate._sum_clocks

    def spy(clock):
        sum_clocks(clock)
        blocks.append((len(clock) - 1, clock.shape[1],
                       bool((clock[1:] >= t_max).any()),
                       counting.calls["compaction"]))

    monkeypatch.setattr(simulate, "_sum_clocks", spy)
    monkeypatch.setattr(simulate, "np", counting)
    # with no trap on the chain the walker does not depend on the mode
    assert simulate.TRAP_NODE not in ch.kind
    for expo in (False, True):
        want, _ = _reference_run(ch, starts, 11, t_max, MODE_FULL, expo, -1)
        for mode in (MODE_FULL, MODE_KILLED, MODE_PART):
            del blocks[:]
            counting.calls.clear()
            out = run(ch, starts=starts, t_max=t_max, seed=11, mode=mode,
                      exponential_holding=expo)
            for key in ENGINE_KEYS:
                assert out[key].tobytes() == want[key].tobytes(), (
                    mode, expo, key)
            ended = [e for _, _, e, _ in blocks]
            after = [c for *_, c in blocks[1:]] + [counting.calls["compaction"]]
            compacted = [b > a for (*_, a), b in zip(blocks, after)]
            assert blocks[0][:2] == first_block and counting.calls[sums]
            assert compacted == ended and any(ended), (mode, expo)
            assert expo or not ended[0], mode


# Hashes taken before the last xorshift (``_keyed_hash``) at the edge of
# the coin, 2 ** 63: that xorshift can change their low 33 bits, never
# the top one, which alone decides the coin.
_EDGE_HASHES = (2 ** 63 - 2 ** 33 - 1, 2 ** 63 - 2 ** 33, 2 ** 63 - 1,
                2 ** 63, 2 ** 63 + 1, 2 ** 63 + 2 ** 33 - 1, 2 ** 63 + 2 ** 33)


def _uniform_of(z):
    return float(simulate._to_uniform(np.array([z], dtype=np.uint64))[0])


def _finished(y):
    return int(simulate._finish(np.array([y], dtype=np.uint64))[0])


def _key_of(hash_):
    """The counter key whose step-0 hash before the last xorshift
    (``_keyed_hash``) is ``hash_``: every stage of the hash inverted."""
    mod = 2 ** 64

    def unshift(z, s):  # the inverse of z ^= z >> s
        x = z
        for _ in range(64 // s + 1):
            x = z ^ (x >> s)
        return x

    def unpremix(z):
        z = unshift(z * pow(int(simulate._M2), -1, mod) % mod, 27)
        return unshift(z * pow(int(simulate._M1), -1, mod) % mod, 30)

    return (unpremix(unshift(unpremix(hash_), 31)) - int(simulate._PHI)) % mod


def _edge_keys(n):
    """n counter keys whose step-0 hashes sit at the coin's edge: those of
    ``_EDGE_HASHES``, then 2 ** 63 - j * 2 ** 28 and 2 ** 63 + j * 2 ** 28
    for j = 1, 2, ..."""
    hashes = list(_EDGE_HASHES)
    j = 1
    while len(hashes) < n:
        hashes += [2 ** 63 - j * 2 ** 28, 2 ** 63 + j * 2 ** 28]
        j += 1
    keys = np.array([_key_of(y) for y in hashes[:n]], dtype=np.uint64)
    assert simulate._keyed_hash(keys, 0).tolist() == hashes[:n]
    return keys


def _with_edge_keys(monkeypatch, n):
    """Replication r of every call reads the counter stream of
    ``_edge_keys(n)[r]``, whatever the seed."""
    keys = _edge_keys(n)
    monkeypatch.setattr(simulate, "_rep_key", lambda seed, rep: keys[rep])


@settings(deadline=None, database=None)
@given(st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from(_EDGE_HASHES),
                 st.integers(2 ** 63 - 2 ** 34, 2 ** 63 + 2 ** 34)))
def test_integer_threshold_is_the_coin_of_the_uniform(y):
    """A hash y taken before the last xorshift is below 2 ** 63 exactly
    when the uniform of its finished hash is below 1/2, the right
    probability of every walk node: at the edge and anywhere.  numpy's
    comparison of the hash with ``_HALF`` reads the same coin."""
    right = y < 2 ** 63
    assert (_uniform_of(_finished(y)) < 0.5) == right
    assert np.less(np.array([y], dtype=np.uint64), simulate._HALF).tolist() \
        == [right]


def _block_spies(monkeypatch):
    """Count numpy calls and record the steps and columns of each
    block."""
    counting = _CountingNumpy()
    blocks = []
    sum_clocks = simulate._sum_clocks

    def clocks_spy(clock):
        sum_clocks(clock)
        blocks.append((len(clock) - 1, clock.shape[1]))

    monkeypatch.setattr(simulate, "np", counting)
    monkeypatch.setattr(simulate, "_sum_clocks", clocks_spy)
    return counting, blocks


# MIXED on (-0.5, 3) at h = 0.02.  6 replications walk blocks of 256
# steps, or one of 102 under a step cap of 101: twelve whole words and a
# partial one.  Their counter keys come from the seed, their first hashes
# spread over all values, or are crafted so that those hashes sit tight
# at the coin's edge (``_edge_keys``).
@pytest.mark.parametrize("keys", ["spread", "tight"])
@pytest.mark.parametrize("cap", [None, 101])
def test_word_blocks_and_their_fallback_equal_the_reference_walker(
        monkeypatch, keys, cap):
    """Blocks walked a word of coins at a time, and the same blocks walked
    one row per coin, their fallback on a chain with more nodes than the
    word tables take, give ``run`` and ``simulate_path`` the arrays and
    traces of the one-step walker byte for byte, with and without a
    target and exponential holding; each call by words builds its word
    tables once."""
    ch = build_chain(spec_from(MIXED), (-0.5, 3.0), 0.02)
    if cap is not None:
        monkeypatch.setattr(simulate, "_step_cap", lambda *args: cap)
    if keys == "tight":
        _with_edge_keys(monkeypatch, 6)
    starts = np.full(6, ch.node_at(0.5))
    t_max, runs, paths, ends = 0.4, [], [], collections.Counter()
    for expo in (False, True):
        for target in (None, 1.0):
            target_node = -1 if target is None else ch.node_at(target)
            want, walks = _reference_run(ch, starts, 2, t_max, MODE_KILLED,
                                         expo, target_node)
            capped = sum(w[4] for w in walks)
            assert (capped > 0) == (cap is not None)
            runs.append((expo, target, want, capped))
            ends.update(STATUS_NAMES[s] for s in want["status"])
            ends["hit"] += int(want["hit"].sum())
        for rep in range(3):
            node, t_end, status, _, capped, times, nodes = reference_walk(
                ch, starts[rep], simulate._rep_key(2, rep), t_max,
                MODE_KILLED, expo, -1, simulate._step_cap(ch, t_max, expo))
            if t_end > times[-1]:
                times, nodes = times + [t_end], nodes + [node]
            paths.append((expo, rep, status, capped, times, nodes))
    if cap is None:  # a terminal node, the target and the horizon end paths
        assert ends["hit"] and {"alive", "killed_at_window",
                                "absorbed_at_trap"} <= set(ends)
    counting, blocks = _block_spies(monkeypatch)
    for word_nodes in (simulate._WORD_NODES, ch.n_nodes - 1):
        monkeypatch.setattr(simulate, "_WORD_NODES", word_nodes)
        by_words = ch.n_nodes <= word_nodes
        counting.calls.clear()
        del blocks[:]
        for expo, target, want, capped in runs:
            out, caught = _recorded(
                run, ch, starts=starts, t_max=t_max, seed=2, mode=MODE_KILLED,
                exponential_holding=expo, target=target)
            assert len(caught) == (capped > 0)
            for key in ENGINE_KEYS:
                assert out[key].tobytes() == want[key].tobytes(), (
                    by_words, expo, target, key)
        for expo, rep, status, capped, times, nodes in paths:
            path, caught = _recorded(simulate_path, ch, 0.5, t_max, seed=2,
                                     rep=rep, mode=MODE_KILLED,
                                     exponential_holding=expo)
            assert len(caught) == capped
            assert path.status == STATUS_NAMES[status]
            assert path.times.tobytes() == np.array(times).tobytes()
            assert path.positions.tobytes() == ch.x[nodes].tobytes()
        n_block = 256 if cap is None else cap + 1
        assert {n for n, _ in blocks} == {n_block}
        assert n_block >= simulate._WORD_FROM
        assert counting.calls["word block"] == by_words * len(blocks)
        assert counting.calls["word table"] == \
            by_words * (len(runs) + len(paths))


def test_wide_blocks_and_large_chains_walk_one_step_at_a_time(monkeypatch):
    """A block of 4 096 replications, and a chain with more nodes than
    the word tables take, move one row per coin and never build the
    tables; both still equal the one-step walker."""
    counting, blocks = _block_spies(monkeypatch)
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    starts = np.full(4096, ch.node_at(0.5))
    # a deterministic clock reaches the horizon within 13 steps, so every
    # path ends while the blocks are wide
    want, _ = _reference_run(ch, starts, 11, 0.03, MODE_FULL, False, -1)
    out = run(ch, starts=starts, t_max=0.03, seed=11)
    for key in ENGINE_KEYS:
        assert out[key].tobytes() == want[key].tobytes(), key
    assert blocks[0] == (8, 4096)
    assert all(n < simulate._WORD_FROM for n, _ in blocks)
    del blocks[:]
    ch = build_chain(spec_from(MIXED), (-0.5, 3.0), 0.02)
    monkeypatch.setattr(simulate, "_WORD_NODES", ch.n_nodes - 1)
    starts = np.full(6, ch.node_at(0.5))
    want, _ = _reference_run(ch, starts, 2, 0.4, MODE_KILLED, False, -1)
    out = run(ch, starts=starts, t_max=0.4, seed=2, mode=MODE_KILLED)
    for key in ENGINE_KEYS:
        assert out[key].tobytes() == want[key].tobytes(), key
    assert all(n >= simulate._WORD_FROM for n, _ in blocks)
    assert not (counting.calls["word block"] or counting.calls["word table"])


@pytest.mark.parametrize("block", [64, None], ids=["rows", "words"])
def test_crafted_hashes_at_the_coin_edges_equal_the_reference_walker(
        monkeypatch, block):
    """Keys crafted so that the first coin's hash sits at the coin's
    edge, 2 ** 63, or 2 ** 33 from it, where the last xorshift changes
    the hash but not its coin: ``_walk`` equals the one-step walker byte
    for byte, walking blocks of 2 steps one row per coin and blocks of
    256 by words."""
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
    ch = build_chain(spec_from(MIXED), (-0.5, 3.0), 0.02)
    walk = np.flatnonzero(ch.kind == simulate.WALK)
    inner = walk[ch.x[walk] < 1.0][::6]
    starts = np.repeat(inner, len(_EDGE_HASHES))
    hashes = list(_EDGE_HASHES) * len(inner)
    keys = np.array([_key_of(y) for y in hashes], dtype=np.uint64)
    assert simulate._keyed_hash(keys, 0).tolist() == hashes
    # the last xorshift moves every one of them, and both coins occur
    assert all(_finished(y) != y for y in _EDGE_HASHES)
    assert {y < 2 ** 63 for y in _EDGE_HASHES} == {False, True}
    for expo in (False, True):
        cap = simulate._step_cap(ch, 0.004, expo)
        walks = [reference_walk(ch, s, key, 0.004, MODE_KILLED, expo, -1, cap)
                 for s, key in zip(starts, keys)]
        out = simulate._walk(ch, starts, keys, 0.004, MODE_KILLED, expo, -1)
        dtypes = (np.int64, np.float64, np.int8, bool)
        for i, (key, dtype) in enumerate(zip(ENGINE_KEYS, dtypes)):
            want = np.array([w[i] for w in walks], dtype=dtype)
            assert out[key].tobytes() == want.tobytes(), (expo, key)


# The positions-only loop of estimate_hitting (_first_passage) gives
# every replication the status and hit of ``run`` with a target.  The
# chains of the benchmark's hitting calls and the trap chains;
# (spec, window, x0, target).
CUBIC = {"name": "cubic", "pieces": [
    {"kind": "regular_interval", "a": "-inf", "b": "inf",
     "scale": "x^3", "speed": {"density": "2"}}]}
PASSAGE_CHAINS = {
    "bm": ("bm", (0.0, 1.0), 0.3, 1.0),
    "cubic": (CUBIC, (0.0, 1.0), 0.5, 1.0),
    "exa1": ("exa1", (-2.5, 2.5), -1.0, 1.0),
    "exa2": ("exa2", (-1.0, 3.0), 1.0, 2.0),
    "absorb-reflect": ("absorb-reflect", (-0.5, 2.0), 0.5, 0.9)}
PASSAGE_HORIZONS = (0.0, 0.01, 0.1, 0.5, 2.0, 50.0)


@functools.lru_cache(maxsize=None)
def _passage_chain(name):
    spec, window, _, _ = PASSAGE_CHAINS[name]
    return build_chain(get_example(spec) if isinstance(spec, str)
                       else parse_spec(spec), window, 0.05)


@pytest.mark.parametrize("name", PASSAGE_CHAINS)
def test_word_moves_step_the_node_table_by_the_bits_of_each_word(name):
    """The tables of both loops, on a chain whose target leads to itself:
    ``fill[i, w, c]`` is 2 * the node that stepping ``go`` from node c by
    the first i + 1 bits of w (bit j the coin of step j) leads to,
    ``jump[w, c]`` the node after all _WORD of them, and ``wsum[w, c]``
    the sum, left to right, of the holding times at the nodes those steps
    depart from."""
    ch = _passage_chain(name)
    target = ch.node_at(PASSAGE_CHAINS[name][3])
    moves, _, _, go, *_ = simulate._node_rules(ch, MODE_KILLED, target)
    n, word = ch.n_nodes, simulate._WORD
    fill = np.empty((word, 1 << word, n), dtype=go.dtype)
    for _ in simulate._word_moves(go, fill):
        pass
    hold = np.where(moves, ch.tau, 0.0)
    jump, wsum = simulate._passage_moves(go, np.repeat(hold, 2))
    assert not moves[target] and np.any(wsum == 0.0) and np.any(wsum > 0.0)
    for w in range(1 << word):
        node, held = np.arange(n), np.zeros(n)
        for i in range(word):
            held = held + hold[node]
            node = go[2 * node + (w >> i & 1)] >> 1
            assert (fill[i, w] == 2 * node).all(), (w, i)
        assert (jump[w] == node).all(), w
        assert wsum[w].tobytes() == held.tobytes(), w


def _passage_spies(monkeypatch):
    """The (status, hit) of every ``_first_passage`` call, and a count
    of the replications it replays through ``_walk``."""
    outs, seen, where = [], collections.Counter(), []
    first_passage, walk = simulate._first_passage, simulate._walk

    def passage_spy(*args):
        where.append("loop")
        outs.append(first_passage(*args))
        where.pop()
        return outs[-1]

    def walk_spy(chain, starts, *args, **kw):
        if where == ["loop"]:
            seen["replayed"] += len(starts)
        where.append("walk")
        try:
            return walk(chain, starts, *args, **kw)
        finally:
            where.pop()

    monkeypatch.setattr(simulate, "_first_passage", passage_spy)
    monkeypatch.setattr(simulate, "_walk", walk_spy)
    return outs, seen


def _assert_hitting_equals_run(outs, ch, x0, target, t_max, n_rep, seed,
                               mode, exponential_holding=False):
    """estimate_hitting against run, replication for replication; returns
    the status and hit arrays."""
    want = run(ch, x0=x0, t_max=t_max, n_rep=n_rep, seed=seed, mode=mode,
               target=target, exponential_holding=exponential_holding)
    del outs[:]
    est = estimate_hitting(ch, x0, target, t_max, n_rep, seed=seed,
                           mode=mode, exponential_holding=exponential_holding)
    (status, hit), = outs
    case = (t_max, mode, exponential_holding)
    assert status.tobytes() == want["status"].tobytes(), case
    assert hit.tobytes() == want["hit"].tobytes(), case
    assert est["hits"] == int(want["hit"].sum())
    assert est["status_counts"] == {
        name: int((want["status"] == code).sum())
        for code, name in STATUS_NAMES.items()}
    return status, hit


@pytest.mark.parametrize("redrawn", [False, True], ids=["built", "redrawn"])
@pytest.mark.parametrize("name", PASSAGE_CHAINS)
def test_hitting_loop_equals_run_per_replication(monkeypatch, name, redrawn):
    """At every horizon, from 0 to 50, in two modes and under both holding
    laws, the positions-only loop gives each replication the status and
    hit of ``run``: absorbed before the horizon and alive at it
    everywhere, also with every counter key redrawn so that the first
    coin's hash sits at the coin's edge (``_edge_keys``).  With
    deterministic holding times it replays some replications on bm only,
    whose holding times are all h ** 2, so clocks land on the horizon.
    With exponential ones it also replays every replication whose bound
    on the clock reaches the horizon first, and every one of a call where
    none can be decided, but it decides some of them."""
    ch = _passage_chain(name)
    _, _, x0, target = PASSAGE_CHAINS[name]
    if redrawn:
        _with_edge_keys(monkeypatch, 300)
    outs, seen = _passage_spies(monkeypatch)
    for expo in (False, True):
        seen.clear()
        for t_max in PASSAGE_HORIZONS:
            for mode in (MODE_KILLED, MODE_FULL):
                status, hit = _assert_hitting_equals_run(
                    outs, ch, x0, target, t_max, 300, 4, mode, expo)
                alive = (status == simulate.ALIVE) & ~hit
                seen["absorbed"] += int((~alive).sum())
                seen["alive"] += int(alive.sum())
        assert seen["absorbed"] and seen["alive"]
        if expo:
            n_rep = seen["absorbed"] + seen["alive"]
            assert 0 < seen["replayed"] < n_rep
        else:
            assert bool(seen["replayed"]) == (name == "bm")


@pytest.mark.parametrize("t_max", [0.0, 0.5])
def test_hitting_from_the_target_or_a_window_edge_ends_there(monkeypatch,
                                                             t_max):
    """A replication that starts on the target, or on a window edge, ends
    there at once, as in ``run``, also at t_max = 0, under both holding
    laws."""
    ch = _passage_chain("bm")
    outs, _ = _passage_spies(monkeypatch)
    for x0, target, status in ((1.0, 1.0, "alive"), (0.0, 1.0,
                                                     "killed_at_window"),
                               (1.0, 0.3, "killed_at_window")):
        for expo in (False, True):
            _, hit = _assert_hitting_equals_run(outs, ch, x0, target, t_max,
                                                40, 6, MODE_KILLED, expo)
            est = estimate_hitting(ch, x0, target, t_max, 40, seed=6,
                                   exponential_holding=expo)
            assert est["status_counts"][status] == 40
            assert hit.all() == (x0 == target)


@settings(deadline=None, database=None, max_examples=40)
@given(name=st.sampled_from(["bm", "exa2", "absorb-reflect"]),
       steps=st.one_of(st.floats(0.0, 400.0), st.integers(0, 400)),
       seed=st.integers(0, 2 ** 32 - 1), expo=st.booleans())
def test_hitting_loop_equals_run_at_any_horizon_and_seed(name, steps, seed,
                                                         expo):
    """Horizons anywhere, and on the lattice of whole holding times where
    deterministic clocks land on them, with any seed and either holding
    law."""
    ch = _passage_chain(name)
    _, _, x0, target = PASSAGE_CHAINS[name]
    t_max = steps * float(ch.tau[ch.kind == simulate.WALK].max())
    with pytest.MonkeyPatch.context() as mp:
        outs, _ = _passage_spies(mp)
        _assert_hitting_equals_run(outs, ch, x0, target, t_max, 64, seed,
                                   MODE_KILLED, expo)


def _bracketed_first_passage(monkeypatch, name, t_max, expo):
    """``_first_passage`` on 500 replications, its statuses and hits
    checked against ``run``'s.  Returns the replications it finds
    absorbed, those it replays, the sum S and step count k of each
    replication's last block (paired with it through the counter keys of
    the block) and ``run``'s final times."""
    ch = _passage_chain(name)
    _, _, x0, target = PASSAGE_CHAINS[name]
    keys = simulate._rep_key(8, np.arange(500))
    rep_of = {int(key): r for r, key in enumerate(keys)}
    last = {}  # replication -> (S, k) of its last block
    block_keys, replayed = [], set()
    keyed_hash, bracket = simulate._keyed_hash, simulate._bracket
    walk = simulate._walk

    def hash_spy(key, step):
        block_keys.append(key)
        return keyed_hash(key, step)

    def bracket_spy(total, k, t_max, *spread):
        for key, s in zip(block_keys[-1], total):
            last[rep_of[int(key)]] = (float(s), k)
        return bracket(total, k, t_max, *spread)

    def walk_spy(chain, starts, keys, *args):
        replayed.update(rep_of[int(key)] for key in keys)
        return walk(chain, starts, keys, *args)

    monkeypatch.setattr(simulate, "_keyed_hash", hash_spy)
    monkeypatch.setattr(simulate, "_bracket", bracket_spy)
    monkeypatch.setattr(simulate, "_walk", walk_spy)
    status, hit = simulate._first_passage(
        ch, ch.node_at(x0), keys, t_max, MODE_KILLED, ch.node_at(target),
        expo)
    monkeypatch.undo()
    want = run(ch, x0=x0, t_max=t_max, n_rep=500, seed=8, mode=MODE_KILLED,
               target=target, exponential_holding=expo)
    assert status.tobytes() == want["status"].tobytes()
    assert hit.tobytes() == want["hit"].tobytes()
    absorbed = np.flatnonzero((status != simulate.ALIVE) | hit)
    return absorbed, replayed, last, want["final_time"]


@pytest.mark.parametrize("name, t_max", [
    ("bm", 0.5), ("bm", 50.0), ("cubic", 0.5), ("cubic", 50.0),
    ("exa1", 2.0), ("exa1", 50.0)])
def test_hitting_bracket_holds_the_clock_of_every_absorbed_replication(
        monkeypatch, name, t_max):
    """For every replication the loop finds absorbed, its sum S after k
    steps is within k * 2 ** -50 * S of the clock ``run`` ends it with."""
    absorbed, _, last, final_time = _bracketed_first_passage(
        monkeypatch, name, t_max, False)
    assert absorbed.size > 100
    for r in absorbed:
        s, k = last[r]
        assert abs(s - final_time[r]) <= k * 2.0 ** -50 * s, r


@pytest.mark.parametrize("name, t_max", [
    ("bm", 2.0), ("bm", 50.0), ("cubic", 2.0), ("cubic", 50.0),
    ("exa1", 50.0)])
def test_exponential_bound_holds_the_clock_of_every_decided_replication(
        monkeypatch, name, t_max):
    """With exponential holding times, every replication the loop decides
    absorbed, without a replay, ends in ``run`` with a clock of at most
    _EXP_BOUND * S * (1 + k * 2 ** -50), S its sum of mean holding times
    after k steps."""
    absorbed, replayed, last, final_time = _bracketed_first_passage(
        monkeypatch, name, t_max, True)
    decided = [r for r in absorbed if r not in replayed]
    assert len(decided) > 50
    for r in decided:
        s, k = last[r]
        assert final_time[r] <= simulate._EXP_BOUND * s * (1 + k * 2.0 ** -50)


def test_exponential_bound_exceeds_every_exponential_factor():
    """The largest uniform, from the hash 2 ** 64 - 1, gives the largest
    factor -log1p(-u) of an exponential holding time; the bound is at
    least that."""
    u = simulate._to_uniform(np.array([2 ** 64 - 1], dtype=np.uint64))
    assert u[0] == 1.0 - 2.0 ** -53
    assert simulate._EXP_BOUND >= -np.log1p(-u[0]) > 36.7


@pytest.mark.parametrize("cap", [7, 103, 104, 400])
def test_exponential_hitting_at_a_small_step_cap_equals_run(monkeypatch, cap):
    """With the step cap inside the first block of 104 steps (every
    replication is replayed), at its end or after it (some are decided
    first), exponential ``estimate_hitting`` gives the statuses and hits
    of ``run`` and warns of as many capped replications."""
    ch = _passage_chain("bm")
    _, _, x0, target = PASSAGE_CHAINS["bm"]
    monkeypatch.setattr(simulate, "_step_cap", lambda *args: cap)
    outs, seen = _passage_spies(monkeypatch)
    want, warned = _recorded(run, ch, x0=x0, t_max=50.0, n_rep=300, seed=4,
                             target=target, mode=MODE_KILLED,
                             exponential_holding=True)
    est, caught = _recorded(estimate_hitting, ch, x0, target, 50.0, 300,
                            seed=4, exponential_holding=True)
    assert len(warned) == 1 and caught == warned
    (status, hit), = outs
    assert status.tobytes() == want["status"].tobytes()
    assert hit.tobytes() == want["hit"].tobytes()
    assert est["hits"] == int(want["hit"].sum())
    assert (seen["replayed"] < 300) == (cap >= 104)


def test_hitting_on_a_large_chain_takes_the_engine(monkeypatch):
    """A chain with more nodes than the word tables take is estimated
    through ``run``'s engine, with its numbers, under both holding
    laws."""
    ch = _passage_chain("exa2")
    _, _, x0, target = PASSAGE_CHAINS["exa2"]
    outs, _ = _passage_spies(monkeypatch)
    monkeypatch.setattr(simulate, "_WORD_NODES", ch.n_nodes - 1)
    for expo in (False, True):
        want = run(ch, x0=x0, t_max=0.5, n_rep=200, seed=2, target=target,
                   exponential_holding=expo)
        est = estimate_hitting(ch, x0, target, 0.5, 200, seed=2,
                               exponential_holding=expo)
        assert not outs
        assert est["hits"] == int(want["hit"].sum())
        assert est["status_counts"] == {
            name: int((want["status"] == code).sum())
            for code, name in STATUS_NAMES.items()}


def test_horizons_that_are_negative_or_not_finite_are_refused():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    for t_max in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
        for call in (lambda: run(ch, x0=0.3, t_max=t_max, n_rep=4),
                     lambda: simulate_path(ch, 0.3, t_max),
                     lambda: estimate_hitting(ch, 0.3, 1.0, t_max, 4),
                     lambda: estimate_hitting(ch, 0.3, 1.0, t_max, 4,
                                              exponential_holding=True),
                     lambda: estimate_symmetry_defect(
                         ch, lambda x: x, lambda x: 1.0, t_max, 4)):
            with pytest.raises(DomainError,
                               match="t_max must be finite and non-negative"):
                call()


def test_positions_that_are_not_numbers_are_refused():
    """A NaN start or target is refused, not mapped to the window's left
    edge; so are a start outside the chain, an infinite one on a chain
    with no node there, any start on a chain with no nodes, a missing
    start and an unknown mode."""
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    for call in (lambda: run(ch, x0=math.nan, t_max=1.0, n_rep=4),
                 lambda: run(ch, x0=0.3, t_max=1.0, n_rep=4, target=math.nan),
                 lambda: simulate_path(ch, math.nan, 1.0),
                 lambda: estimate_hitting(ch, math.nan, 1.0, 1.0, 4),
                 lambda: estimate_hitting(ch, 0.3, math.nan, 1.0, 4),
                 lambda: estimate_hitting(ch, 0.3, math.nan, 1.0, 4,
                                          exponential_holding=True)):
        with pytest.raises(DomainError, match="must be a number, got nan"):
            call()
    refusals = [
        (lambda: run(ch, x0=5.0, t_max=1.0, n_rep=4), "not covered"),
        (lambda: estimate_hitting(ch, 0.3, 5.0, 1.0, 4), "not covered"),
        (lambda: simulate_path(ch, -5.0, 1.0), "not covered"),
        (lambda: run(ch, t_max=1.0, n_rep=4), "provide x0 or starts"),
        (lambda: run(ch, x0=0.3, t_max=1.0, n_rep=4, mode="frozen"),
         "mode must be one of"),
        (lambda: estimate_hitting(ch, 0.3, 1.0, 1.0, 4, mode="frozen"),
         "mode must be one of")]
    refusals += [(lambda x=x: ch.node_at(x), f"no node at {x}")
                 for x in (math.inf, -math.inf)]
    # exa2's window (-2, -1) lies in its trap segment: no node at all
    empty = build_chain(get_example('exa2'), (-2.0, -1.0), 0.05)
    assert empty.n_nodes == 0
    refusals.append((lambda: run(empty, x0=-1.5, t_max=1.0, n_rep=4),
                     "^empty chain$"))
    for call, message in refusals:
        with pytest.raises(DomainError, match=message):
            call()


def test_seeds_and_replications_outside_64_bits_are_refused():
    """0 and 2 ** 64 - 1 are accepted as seeds and as ``simulate_path``'s
    rep; -1 and 2 ** 64 are refused with a DomainError, not a bare
    OverflowError."""
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    top = 2 ** 64 - 1
    for value, refused in ((0, False), (top, False), (-1, True),
                           (top + 1, True)):
        for call in (lambda: run(ch, x0=0.3, t_max=0.1, n_rep=4, seed=value),
                     lambda: estimate_hitting(ch, 0.3, 1.0, 0.1, 4,
                                              seed=value),
                     lambda: estimate_symmetry_defect(ch, abs, abs, 0.1, 4,
                                                      seed=value),
                     lambda: simulate_path(ch, 0.3, 0.1, seed=value),
                     lambda: simulate_path(ch, 0.3, 0.1, rep=value)):
            if refused:
                with pytest.raises(DomainError,
                                   match=r"must lie in \[0, 2 \*\* 64\)"):
                    call()
            else:
                call()


def test_seeds_and_replications_that_are_not_integers_are_refused():
    """A seed, or ``simulate_path``'s rep, that is not a Python or numpy
    integer is refused with a DomainError, not truncated: seed 1.9 used to
    run seed 1 and report 1.9.  numpy integers are accepted."""
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    for value, refused in ((1.9, True), (1.0, True), (np.float64(2.0), True),
                           ("1", True), (None, True), (np.int64(3), False),
                           (np.uint64(2 ** 64 - 1), False)):
        for call in (lambda: run(ch, x0=0.3, t_max=0.1, n_rep=4, seed=value),
                     lambda: estimate_hitting(ch, 0.3, 1.0, 0.1, 4,
                                              seed=value),
                     lambda: estimate_hitting(ch, 0.3, 1.0, 0.1, 4,
                                              seed=value,
                                              exponential_holding=True),
                     lambda: estimate_symmetry_defect(ch, abs, abs, 0.1, 4,
                                                      seed=value),
                     lambda: simulate_path(ch, 0.3, 0.1, seed=value),
                     lambda: simulate_path(ch, 0.3, 0.1, rep=value)):
            if refused:
                with pytest.raises(DomainError, match="must be an integer"):
                    call()
            else:
                call()


def test_jobs_below_one_are_refused():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    for n_jobs in (0, -1):
        with pytest.raises(DomainError):
            run(ch, x0=0.3, t_max=0.4, n_rep=8, n_jobs=n_jobs)
        with pytest.raises(DomainError):
            estimate_hitting(ch, 0.3, 1.0, 1.0, 8, n_jobs=n_jobs)
        with pytest.raises(DomainError):
            estimate_symmetry_defect(ch, abs, abs, 0.4, 8, n_jobs=n_jobs)


def test_replications_below_one_are_refused():
    # no estimate, interval or nan from zero replications, and no bare
    # numpy error from a negative count
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    for n_rep in (0, -3):
        with pytest.raises(DomainError, match="n_rep must be at least 1"):
            run(ch, x0=0.3, t_max=0.4, n_rep=n_rep)
        with pytest.raises(DomainError, match="n_rep must be at least 1"):
            estimate_hitting(ch, 0.3, 1.0, 1.0, n_rep)
        with pytest.raises(DomainError, match="n_rep must be at least 1"):
            estimate_symmetry_defect(ch, lambda x: x, lambda x: 1.0, 0.4,
                                     n_rep)
    assert run(ch, x0=0.3, t_max=0.4, n_rep=1)["hit"].shape == (1,)


def test_part_process_holds_at_traps_inside_the_window():
    """The part process is killed only on leaving the window, so a trap
    inside it holds the path to the horizon, as in the full process."""
    ch = build_chain(get_example('exa2'), (-1.0, 2.0), 0.05)
    full = run(ch, x0=0.5, t_max=1.0, n_rep=400, seed=9, mode="full")
    part = run(ch, x0=0.5, t_max=1.0, n_rep=400, seed=9,
               mode="part_on_window")
    for key in ("final_node", "final_time", "status", "hit"):
        assert np.array_equal(full[key], part[key]), key
    r = int(np.nonzero(part["status"] == 3)[0][0])
    path = simulate_path(ch, 0.5, 1.0, seed=9, rep=r, mode="part_on_window")
    assert path.status == "absorbed_at_trap"
    assert path.times[-1] == 1.0


def test_step_cap_warns_and_reports_alive_at_the_horizon(monkeypatch):
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    monkeypatch.setattr(simulate, "_step_cap", lambda *args: 3)
    with pytest.warns(RuntimeWarning, match="50 replication"):
        out = run(ch, x0=0.5, t_max=1.0, n_rep=50, seed=2,
                  exponential_holding=True)
    assert status_counter(out)["alive"] == 50
    assert np.all(out["final_time"] == 1.0)
    with pytest.warns(RuntimeWarning, match="1 replication"):
        path = simulate_path(ch, 0.5, 1.0, seed=2, exponential_holding=True)
    assert path.status == "alive"
    assert path.times[-1] == 1.0


def test_step_cap_warnings_point_at_the_caller(monkeypatch):
    """Every public entry warns of replications stopped at the step cap
    at the line that called it, whichever loops inside the module reached
    the cap, with the count and message of the matching ``run``."""
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    monkeypatch.setattr(simulate, "_step_cap", lambda *args: 50)
    node = ch.node_at(0.5)
    one_node = np.zeros(ch.n_nodes)
    one_node[node] = 1.0
    expo = dict(t_max=1.0, seed=3, exponential_holding=True)
    hitting = dict(expo, x0=0.5, target=1.0, n_rep=200)
    calls = {
        "run": (lambda: run(ch, x0=0.5, n_rep=200, **expo),
                lambda: run(ch, x0=0.5, n_rep=200, **expo)),
        "simulate_path": (lambda: simulate_path(ch, 0.5, **expo),
                          lambda: run(ch, x0=0.5, n_rep=1, **expo)),
        "estimate_hitting": (lambda: estimate_hitting(ch, **hitting),
                             lambda: run(ch, mode=MODE_KILLED, **hitting)),
        "estimate_symmetry_defect": (
            lambda: estimate_symmetry_defect(
                ch, math.cos, math.sin, 1.0, 200, seed=3, weights=one_node),
            lambda: run(ch, starts=np.full(200, node), t_max=1.0, seed=3)),
    }
    for word_nodes in (simulate._WORD_NODES, ch.n_nodes - 1):
        # at n_nodes - 1, estimate_hitting takes _walk, not its own loop
        monkeypatch.setattr(simulate, "_WORD_NODES", word_nodes)
        for name, (call, matching) in calls.items():
            _, want = _recorded(matching)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert len(want) == 1 and [str(w.message) for w in caught] == want
            assert [w.filename for w in caught] == [__file__], name


def test_deterministic_step_cap_exceeds_the_horizon():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.001)
    assert ch.min_tau == pytest.approx(1e-6)
    cap = simulate._step_cap(ch, 50.0, False)
    assert cap * ch.min_tau > 50.0


def test_hitting_estimator_reports_wilson_interval():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.02)
    est = estimate_hitting(ch, 0.3, 1.0, 50.0, 2000, seed=8)
    assert 0.0 <= est["ci_low"] <= est["estimate"] <= est["ci_high"] <= 1.0
    assert est["hits"] == round(est["estimate"] * 2000)
    assert est["ci_low"] <= 0.3 <= est["ci_high"]


def test_defect_estimator_weighting_options():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)

    def f(x):
        return 1.0 if 0.2 <= x <= 0.4 else 0.0

    def g(x):
        return 1.0 if 0.6 <= x <= 0.8 else 0.0

    for weights in (None, "lebesgue"):
        d = estimate_symmetry_defect(ch, f, g, 0.3, 400, seed=19,
                                     weights=weights)
        assert d["ci_low"] <= 0.0 <= d["ci_high"]
        assert d["total_weight"] > 0
    custom = np.ones(len(ch.x))
    d2 = estimate_symmetry_defect(ch, f, g, 0.3, 400, seed=19,
                                  weights=custom)
    assert d2["ci_low"] <= 0.0 <= d2["ci_high"]


def test_lebesgue_weights_are_half_the_neighbour_span():
    for ch in (build_chain(get_example('exa1'), (-2.5, 2.5), 0.05),
               build_chain(get_example('drift'), (-1.0, 1.0), 0.05)):
        w = simulate._lebesgue_node_weights(ch)
        for i in range(ch.n_nodes):
            l, r = ch.nbr_left[i], ch.nbr_right[i]
            walk = ch.kind[i] == 0 and l >= 0 and r >= 0
            if walk and np.isfinite(ch.x[l]) and np.isfinite(ch.x[r]):
                assert w[i] == 0.5 * (ch.x[r] - ch.x[l])
            else:
                assert w[i] == 0.0


def test_defect_test_functions_see_each_used_node_once():
    spec = spec_from([
        {"kind": "trap_segment", "a": "-inf", "b": "0"},
        {"kind": "singular_point", "x": "0", "class": "trap"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "-1/x", "speed": {"density": "1/x^4"}}])
    ch = build_chain(spec, (0.5, math.inf), 0.02)
    seen = []

    def f(x):
        assert math.isfinite(x)  # killed paths never reach f or g
        seen.append(x)
        return 1.0 if x < 1.0 else 0.0

    d = estimate_symmetry_defect(ch, f, f, 20.0, 2000, seed=4,
                                 mode="killed_at_traps")
    assert d["mean"] == 0.0
    assert len(seen) <= 4 * ch.n_nodes
    assert len(seen) < 2000


def _defect_starts(ch, n_rep, seed, weights):
    """The total weight and the start nodes the defect estimator draws."""
    if weights is None:
        w = ch.node_mass.copy()
    elif isinstance(weights, str):
        w = simulate._lebesgue_node_weights(ch)
    else:
        w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    u0 = simulate._keyed_uniform(simulate._rep_key(seed, np.arange(n_rep)),
                                 simulate._STEP_START)
    starts = np.searchsorted(np.cumsum(w), u0 * total, side="right")
    return total, np.minimum(starts, ch.n_nodes - 1).astype(np.int64)


def reference_defect(ch, f, g, t_max, n_rep, seed=0, mode=MODE_FULL,
                     weights=None):
    """The defect estimator as it was before it skipped replications:
    ``run`` walks every one, f and g are read at every start and every
    live end, and the terms, mean, sd and interval come from the same
    arithmetic.  Returns the estimate and its terms."""
    total, starts = _defect_starts(ch, n_rep, seed, weights)
    res = run(ch, starts=starts, t_max=t_max, seed=seed, mode=mode)
    live = res["status"] == simulate.ALIVE
    if mode != MODE_KILLED:
        live |= res["status"] == simulate.ABSORBED_TRAP
    f0 = np.array([f(x) for x in ch.x[starts]], dtype=np.float64)
    g0 = np.array([g(x) for x in ch.x[starts]], dtype=np.float64)
    fT = np.zeros(n_rep)
    gT = np.zeros(n_rep)
    fT[live] = [f(x) for x in ch.x[res["final_node"][live]]]
    gT[live] = [g(x) for x in ch.x[res["final_node"][live]]]
    d = total * (f0 * gT - fT * g0)
    mean = float(np.mean(d))
    sd = float(np.std(d, ddof=1)) if n_rep > 1 else 0.0
    half = simulate._Z95 * sd / math.sqrt(n_rep)
    return {"mean": mean, "sd": sd, "ci_low": mean - half,
            "ci_high": mean + half, "n_rep": n_rep, "total_weight": total,
            "t_max": t_max, "seed": seed, "mode": mode}, d


def _walk_spy(monkeypatch):
    """Record the starts and counter keys of every ``_walk`` call."""
    calls, walk = [], simulate._walk

    def spy(chain, starts, keys, *args, **kw):
        calls.append((np.array(starts), np.array(keys)))
        return walk(chain, starts, keys, *args, **kw)

    monkeypatch.setattr(simulate, "_walk", spy)
    return calls


def _drawn_function(kind, a, b, scale, start_xs):
    if kind == "indicator":
        return lambda x: 1.0 if a < x < b else 0.0
    if kind == "signed":
        return lambda x: scale * math.sin(7.0 * x + a) + b
    # 0 at every start, signed elsewhere
    return lambda x: 0.0 if x in start_xs else scale * (x - a)


@settings(deadline=None, database=None, max_examples=200)
@given(data=st.data(), name=st.sampled_from(["bm", "cubic", "exa1", "exa2"]),
       mode=st.sampled_from([MODE_FULL, MODE_PART, MODE_KILLED]),
       weight_kind=st.sampled_from(["speed", "lebesgue", "custom", "one"]),
       kinds=st.lists(st.sampled_from(["indicator", "signed", "zero"]),
                      min_size=2, max_size=2),
       t_max=st.floats(0.0, 0.6), n_rep=st.integers(1, 300),
       seed=st.integers(0, 2 ** 64 - 1))
def test_defect_skip_equals_walking_every_replication(
        data, name, mode, weight_kind, kinds, t_max, n_rep, seed):
    """The estimator returns the bits of the reference that walks every
    replication, on every key, and walks exactly the replications that
    start where f or g is not 0, with their own starts and counter keys.
    Only the sign of a mean whose terms are all +-0 may differ."""
    ch = _passage_chain(name)
    weights = {"speed": None, "lebesgue": "lebesgue"}.get(weight_kind)
    if weight_kind == "custom":  # zeros, and positive total
        weights = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]),
            min_size=ch.n_nodes, max_size=ch.n_nodes)))
        weights[data.draw(st.integers(0, ch.n_nodes - 1))] = 1.0
    elif weight_kind == "one":
        weights = np.zeros(ch.n_nodes)
        weights[data.draw(st.integers(0, ch.n_nodes - 1))] = 3.0
    _, starts = _defect_starts(ch, n_rep, seed, weights)
    start_xs = set(ch.x[starts].tolist())
    lo, hi = float(ch.x.min()), float(ch.x.max())
    f, g = (_drawn_function(kind, data.draw(st.floats(lo, hi)),
                           data.draw(st.floats(lo, hi)),
                           data.draw(st.sampled_from([-2.0, 0.5, 3.0])),
                           start_xs) for kind in kinds)
    with pytest.MonkeyPatch.context() as mp:
        calls = _walk_spy(mp)
        got = estimate_symmetry_defect(ch, f, g, t_max, n_rep, seed=seed,
                                       mode=mode, weights=weights)
    want, terms = reference_defect(ch, f, g, t_max, n_rep, seed=seed,
                                   mode=mode, weights=weights)
    f0 = np.array([f(x) for x in ch.x[starts]])
    g0 = np.array([g(x) for x in ch.x[starts]])
    moving = np.flatnonzero((f0 != 0) | (g0 != 0))
    [(walked_starts, walked_keys)] = calls
    assert walked_keys.tobytes() == simulate._rep_key(seed, moving).tobytes()
    assert walked_starts.tobytes() == starts[moving].tobytes()
    assert got.keys() == want.keys()
    for key, value in want.items():
        if not terms.any() and key in ("mean", "ci_low", "ci_high"):
            assert got[key] == value == 0.0, key
        elif isinstance(value, float):
            assert got[key].hex() == value.hex(), key
        else:
            assert got[key] == value, key


def test_defect_walks_nothing_where_f_and_g_are_zero(monkeypatch):
    ch = build_chain(get_example('exa2'), (-1.0, 3.0), 0.05)
    calls = _walk_spy(monkeypatch)
    for mode in (MODE_FULL, MODE_PART, MODE_KILLED):
        d = estimate_symmetry_defect(ch, lambda x: 0.0, lambda x: 0.0, 0.5,
                                     400, seed=2, mode=mode)
        assert (d["mean"], d["sd"], d["ci_low"], d["ci_high"]) == (0, 0, 0, 0)
    assert [keys.size for _, keys in calls] == [0, 0, 0]


def test_defect_refusals_do_not_depend_on_the_skip(monkeypatch):
    """With f = g = 0 at every start no replication is walked, and the
    estimator still refuses, with the same messages, what it refused when
    it walked them all."""
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)

    def zero(x):
        return 0.0

    def call(**kw):
        args = dict(t_max=0.1, n_rep=20, seed=3)
        args.update(kw)
        return lambda: estimate_symmetry_defect(ch, zero, zero, **args)

    refusals = [(call(n_jobs=0), "n_jobs must be at least 1"),
                (call(mode="bogus"),
                 f"mode must be one of {simulate._MODES}"),
                (call(seed=1.9), "seed must be an integer, got 1.9"),
                (call(seed=2 ** 64),
                 f"seed must lie in [0, 2 ** 64), got {2 ** 64}")]
    refusals += [(call(t_max=t), "t_max must be finite and non-negative, "
                  f"got {t}") for t in (-1.0, math.nan, math.inf)]
    calls = _walk_spy(monkeypatch)
    for refused, message in refusals:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            refused()
    assert calls == []
    assert call()()["mean"] == 0.0
    assert [keys.size for _, keys in calls] == [0]


def test_defect_refuses_test_functions_that_are_not_finite():
    """A value of f or g that is infinite or NaN, at a start or at a live
    end, is refused with the function and the node, not turned into a nan
    estimate (inf at the starts above 0.9 gave mean nan)."""
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    top = float(min(x for x in ch.x if x > 0.9))

    def middle(x):
        return 1.0 if 0.4 < x < 0.6 else 0.0

    def inf_on_top(x):
        return math.inf if x > 0.9 else 0.0

    def nan_below(x):
        return math.nan if x < 0.3 else 0.0

    with pytest.raises(DomainError,
                       match=f"^f must be finite, got inf at x = {top}$"):
        estimate_symmetry_defect(ch, inf_on_top, middle, 0.3, 500, seed=1)
    with pytest.raises(DomainError,
                       match=f"^g must be finite, got inf at x = {top}$"):
        estimate_symmetry_defect(ch, middle, inf_on_top, 0.3, 500, seed=1)
    # every replication starts at 0.5, where nan_below is finite
    one = np.zeros(ch.n_nodes)
    one[ch.node_at(0.5)] = 1.0
    for f, g, name in ((middle, nan_below, "g"), (nan_below, middle, "f")):
        with pytest.raises(DomainError,
                           match=f"^{name} must be finite, got nan at x = "):
            estimate_symmetry_defect(ch, f, g, 0.3, 500, seed=1, weights=one)


def test_warnings_list_is_quiet_on_smooth_data():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    assert ch.warnings == ()
