"""Embedded-chain simulator: geometry, statuses, estimators, determinism."""

import collections
import math

import numpy as np
import pytest

from shuntline import ChainBuildError, DomainError, get_example, parse_spec
from shuntline import simulate
from shuntline.simulate import (STATUS_NAMES, analytic_hitting,
                                build_chain, estimate_hitting,
                                estimate_symmetry_defect, run, simulate_path)

from conftest import exact_walk, spec_from


def status_counter(out):
    return collections.Counter(STATUS_NAMES[s] for s in out["status"])


def test_unit_scale_chain_geometry():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    walk = ch.kind == 0
    assert np.allclose(np.diff(np.sort(ch.x[walk])), 0.05, atol=1e-12)
    # natural scale, flat density: the classical h^2 clock and fair coin
    assert np.allclose(ch.tau[walk], 0.05 ** 2, rtol=1e-12)
    assert np.allclose(ch.p_right[walk], 0.5, rtol=1e-12)


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


def test_jobs_below_one_are_refused():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    for n_jobs in (0, -1):
        with pytest.raises(DomainError):
            run(ch, x0=0.3, t_max=0.4, n_rep=8, n_jobs=n_jobs)
        with pytest.raises(DomainError):
            estimate_hitting(ch, 0.3, 1.0, 1.0, 8, n_jobs=n_jobs)


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


def test_warnings_list_is_quiet_on_smooth_data():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    assert ch.warnings == ()
