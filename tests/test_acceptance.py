"""Acceptance suite: every primary guarantee, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py``; each test line is the
pass/fail verdict for one numbered guarantee.  Tolerances are stated
inline next to each assertion.
"""

import math
import random

import pytest

from shuntline import (check_hunt, check_symmetrizable, get_example,
                       list_examples, parse_spec)
from shuntline import dirichlet as dl
from shuntline.boundary import approachable, scale_limit
from shuntline.cli import main as cli_main
from shuntline.simulate import (build_chain, estimate_hitting,
                                estimate_symmetry_defect)
from shuntline.symmetry import lambda_ap, lambda_at

from conftest import random_spec_doc, spec_from


def binom_se(p, n):
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def test_c01_revisit_property_verdicts_exact():
    rep = check_hunt(get_example('drift'))
    assert rep.holds is False
    assert [w.kind for w in rep.witnesses] == ["r1"]

    rep = check_hunt(get_example('bessel-glue'))
    assert rep.holds is False
    assert [(w.kind, w.lo, w.hi) for w in rep.witnesses] == [("r2", 0.0, 0.0)]

    for name in ("exa1", "exa2", "bm"):
        assert check_hunt(get_example(name)).holds is True, name


def test_c02_symmetrizability_verdicts_exact():
    rep = check_symmetrizable(get_example('exa1'))
    assert rep.killed is False and rep.full is False
    rep = check_symmetrizable(get_example('exa2'))
    assert rep.killed is True and rep.full is False
    rep = check_symmetrizable(get_example('bm'))
    assert rep.killed is True and rep.full is True
    assert check_symmetrizable(get_example('drift')).killed is False


def test_c03_verdicts_wired_to_independent_reachability():
    """killed <=> revisit-property and no two-sided one-way points;
    full <=> killed and no reachable traps.  The right-hand sides are
    recomputed through the graph-literal detectors on every builtin
    plus twenty randomized valid specs."""
    specs = [get_example(n) for n in list_examples()]
    specs += [parse_spec(random_spec_doc(seed)) for seed in range(20)]
    for spec in specs:
        rep = check_symmetrizable(spec)
        holds = check_hunt(spec).holds
        ap = lambda_ap(spec, literal=True)
        at = lambda_at(spec)
        assert rep.killed is (holds and not ap), spec.name
        assert rep.full is (rep.killed and not at), spec.name


def test_c04_endpoint_oracles_and_tolerance_stability():
    # closed form: piece (0, 2), natural scale, density 2, midpoint
    # anchor 1: int_1^2 (2 - x) * 2 dx = 1 exactly
    spec = spec_from([
        {"kind": "trap_segment", "a": "-inf", "b": "0"},
        {"kind": "singular_point", "x": "0", "class": "trap"},
        {"kind": "regular_interval", "a": "0", "b": "2",
         "scale": "x", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "2", "class": "trap"},
        {"kind": "trap_segment", "a": "2", "b": "inf"}])
    piece = spec.pieces[2]
    for rel_tol in (1e-6, 1e-8):
        verdict, value = approachable(piece, "b", rel_tol=rel_tol)
        assert verdict == "yes"
        assert value == pytest.approx(1.0, abs=1e-5)

    # log-scale origin: scale limit -inf, divergent approach integral
    glue_piece = get_example('bessel-glue').pieces[2]
    assert scale_limit(glue_piece, "a") == -math.inf
    for rel_tol in (1e-6, 1e-8):
        assert approachable(glue_piece, "a", rel_tol=rel_tol)[0] == "no"


def test_c05_hitting_estimates_converge_to_scale_ratio():
    # unit scale from 0.3: true probability 0.3; allow three interval
    # half-widths at every grid step
    bm = get_example('bm')
    for h in (0.02, 0.01, 0.005):
        ch = build_chain(bm, (0.0, 1.0), h)
        est = estimate_hitting(ch, 0.3, 1.0, 50.0, 10000, seed=42, n_jobs=8)
        half = (est["ci_high"] - est["ci_low"]) / 2.0
        assert abs(est["estimate"] - 0.3) <= 3.0 * half, h

    cubic = spec_from([{"kind": "regular_interval", "a": "-inf", "b": "inf",
                        "scale": "x^3", "speed": {"density": "2"}}],
                      name="cubic")
    for h in (0.02, 0.01, 0.005):
        ch = build_chain(cubic, (0.0, 1.0), h)
        est = estimate_hitting(ch, 0.5, 1.0, 50.0, 10000, seed=43, n_jobs=8)
        half = (est["ci_high"] - est["ci_low"]) / 2.0
        assert abs(est["estimate"] - 0.125) <= 3.0 * half, h


def test_c06_hitting_factorizes_through_interior_point():
    # 0.25 = 0.4 * 0.625 along 0.2 -> 0.5 -> 0.8; the difference must
    # sit within three combined standard errors (delta method)
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.02)
    n = 10000
    p_ac = estimate_hitting(ch, 0.2, 0.8, 50.0, n, seed=101,
                            n_jobs=8)["estimate"]
    p_ab = estimate_hitting(ch, 0.2, 0.5, 50.0, n, seed=202,
                            n_jobs=8)["estimate"]
    p_bc = estimate_hitting(ch, 0.5, 0.8, 50.0, n, seed=303,
                            n_jobs=8)["estimate"]
    assert p_ac == pytest.approx(0.25, abs=0.02)
    assert p_ab == pytest.approx(0.4, abs=0.02)
    assert p_bc == pytest.approx(0.625, abs=0.02)
    diff = p_ac - p_ab * p_bc
    sigma = math.sqrt(binom_se(p_ac, n) ** 2
                      + (p_bc * binom_se(p_ab, n)) ** 2
                      + (p_ab * binom_se(p_bc, n)) ** 2)
    assert abs(diff) <= 3.0 * sigma


def test_c07_one_way_glue_has_positive_defect_and_no_return():
    exa1 = get_example('exa1')
    ch = build_chain(exa1, (-2.5, 2.5), 0.05)

    def f(x):
        return 1.0 if -2.0 < x < -1.0 else 0.0

    def g(x):
        return 1.0 if 1.0 < x < 2.0 else 0.0

    d = estimate_symmetry_defect(ch, f, g, 1.0, 10000, seed=11, n_jobs=8,
                                 weights="lebesgue")
    assert d["mean"] > 0.0
    assert d["ci_low"] > 0.0        # 95 percent interval excludes zero

    rev = estimate_hitting(ch, 1.0, -1.0, 10.0, 10000, seed=12, n_jobs=8)
    assert rev["hits"] == 0
    assert rev["estimate"] == 0.0


def test_c08_symmetric_diffusion_has_null_defect():
    ch = build_chain(get_example('bm'), (0.0, 1.0), 0.05)
    rng = random.Random(2024)
    for trial in range(3):
        a = rng.uniform(0.05, 0.4)
        b = a + rng.uniform(0.15, 0.5 - a / 2)
        c = rng.uniform(b, 0.9)
        dd = min(c + rng.uniform(0.15, 0.3), 0.98)

        def f(x, lo=a, hi=b):
            return 1.0 if lo < x < hi else 0.0

        def g(x, lo=c, hi=dd):
            return 1.0 if lo < x < hi else 0.0

        d = estimate_symmetry_defect(ch, f, g, 0.3, 10000,
                                     seed=500 + trial, n_jobs=8)
        assert d["ci_low"] <= 0.0 <= d["ci_high"], trial


def test_c08_curved_scale_has_null_defect_for_its_speed_measure(
        cubic_scale_doc):
    # scale x^3: a chain weighted by a mass it is not reversible for reads
    # a defect at z = 21.5 here; its own hat masses read within sampling
    # error, |z| <= 4 with z the mean over its standard error
    ch = build_chain(parse_spec(cubic_scale_doc), (0.0, 1.0), 0.05)

    def f(x):
        return 1.0 if 0.1 < x < 0.4 else 0.0

    def g(x):
        return 1.0 if 0.6 < x < 0.9 else 0.0

    d = estimate_symmetry_defect(ch, f, g, 0.05, 200000, seed=7)
    assert abs(d["mean"]) <= 4.0 * d["sd"] / math.sqrt(d["n_rep"])


def test_c09_energy_values_and_domain_rules():
    # clamped identity on a unit scale window carries energy 1/2
    form = dl.make_form(get_example('absorb-reflect'))
    ramp = dl.TestFunction(((0, dl.ramp_profile(0.0, 1.0)),))
    assert dl.energy(form, ramp, ramp) == pytest.approx(0.5, abs=1e-6)

    # a profile that does not vanish at an absorbing exit is rejected
    form2 = dl.make_form(get_example('exa2'))
    bad = dl.TestFunction(((0, dl.ramp_profile(0.5, 1.5, 1.0, 0.0)),))
    assert not dl.membership(form2, bad).ok

    # Cauchy-Schwarz and unit contraction on ten random profile pairs
    rng = random.Random(99)

    def rand_tf():
        n = rng.randint(2, 5)
        knots = sorted(set(round(rng.uniform(0.05, 0.95), 3)
                           for _ in range(n)))
        while len(knots) < 2:
            knots = sorted(set(round(rng.uniform(0.05, 0.95), 3)
                               for _ in range(n)))
        us = [0.02] + knots + [0.98]
        vs = [0.0] + [rng.uniform(-1.5, 1.5) for _ in knots] + [0.0]
        return dl.TestFunction(((0, dl.linear_profile(us, vs)),))

    for _ in range(10):
        F, G = rand_tf(), rand_tf()
        eff = dl.energy(form, F, F)
        egg = dl.energy(form, G, G)
        efg = dl.energy(form, F, G)
        assert efg * efg <= eff * egg * (1 + 1e-9) + 1e-12
        clipped = dl.clip_unit(F)
        assert dl.energy(form, clipped, clipped) <= eff * (1 + 1e-9) + 1e-12


def test_c10_measure_regularity_and_adaptedness():
    assert dl.check_regular_form(get_example('bm')).ok is True
    # declared infinite endpoint mass breaks local finiteness
    assert dl.check_regular_form(get_example('nonradon')).ok is False
    for name in ("bm", "split-bm"):
        rep = dl.check_adapted(get_example(name))
        assert rep.ok is True and rep.violations == (), name


def test_c11_reports_byte_identical_across_parallelism(tmp_path):
    args = ["simulate", "--example", "bm", "--window", "0,1",
            "--h", "0.02", "--t-max", "1", "--x0", "0.3",
            "--n-rep", "2000", "--seed", "7"]
    outs = []
    for tag, jobs in (("a", "1"), ("b", "8"), ("c", "8"), ("d", "1")):
        out = tmp_path / f"{tag}.json"
        assert cli_main(args + ["--jobs", jobs, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2] == outs[3]
