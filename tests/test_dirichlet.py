"""Energy form: values, domain membership, contraction properties."""

import math
import random

import pytest

from shuntline import (DomainError, MembershipError, NotSymmetrizableError,
                       UndeterminedVerdict, check_symmetrizable,
                       example_document, get_example, list_examples,
                       parse_spec)
from shuntline import dirichlet as dl

from conftest import random_spec_doc



def tf(component, profile):
    return dl.TestFunction(((component, profile),))


def slow_mass_doc(hints=None):
    """split-bm with a right density of x^-1 ln(1/x)^-1.5 near 0: its mass
    toward 0 is finite, but the shells decay like k^-1.5, too slowly for
    any verdict."""
    speed = {"density": "piecewise(1/(x*ln(1/x)^1.5) if x < 0.5, 2)"}
    if hints:
        speed["hints"] = hints
    return {"name": f"slow-mass-{hints}", "pieces": [
        {"kind": "regular_interval", "a": "-inf", "b": "0", "scale": "-1/x",
         "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "0", "class": "trap"},
        {"kind": "regular_interval", "a": "0", "b": "inf", "scale": "-1/x",
         "speed": speed}]}


def random_member_profile(rng):
    """Piecewise linear, vanishing at and beyond both ends of (0, 1)."""
    n = rng.randint(2, 5)
    knots = sorted(rng.uniform(0.05, 0.95) for _ in range(n))
    while any(b - a < 1e-3 for a, b in zip(knots, knots[1:])):
        knots = sorted(rng.uniform(0.05, 0.95) for _ in range(n))
    us = [0.02] + knots + [0.98]
    vs = [0.0] + [rng.uniform(-1.5, 1.5) for _ in knots] + [0.0]
    return dl.linear_profile(us, vs)


def test_ramp_energy_is_half():
    """Clamped identity on a unit scale window: energy (1/2) int 1 du."""
    form = dl.make_form(get_example('absorb-reflect'))
    ramp = tf(0, dl.ramp_profile(0.0, 1.0))
    assert dl.energy(form, ramp, ramp) == pytest.approx(0.5, abs=1e-6)


def test_energy_is_bilinear_and_symmetric():
    form = dl.make_form(get_example('absorb-reflect'))
    rng = random.Random(5)
    f = tf(0, random_member_profile(rng))
    g = tf(0, random_member_profile(rng))
    efg = dl.energy(form, f, g)
    assert efg == pytest.approx(dl.energy(form, g, f), rel=1e-9, abs=1e-12)
    # scaling one argument scales the value
    f2 = tf(0, dl.Profile(f.profiles[0][1].breakpoints,
                          tuple(tuple(2.0 * c for c in row)
                                for row in f.profiles[0][1].coefficients)))
    assert dl.energy(form, f2, g) == pytest.approx(2.0 * efg, rel=1e-9,
                                                   abs=1e-12)
    # profiles on disjoint spans, or on different components, add nothing
    assert dl.energy(form, f, tf(0, dl.ramp_profile(2.0, 3.0))) == 0.0
    assert dl.energy(form, f, tf(1, g.profiles[0][1])) == 0.0


@pytest.mark.parametrize("make, message", [
    (lambda: dl.Profile((0.0,), ()), r"K\+1 breakpoints"),
    (lambda: dl.Profile((0.0, 0.0), ((0.0,) * 4,)), "strictly increasing"),
    (lambda: dl.Profile((0.0, 1.0), ((0.0,) * 3,)), "four cubic"),
    (lambda: dl.linear_profile([0.0, 1.0], [1.0]), "matching u and value"),
])
def test_malformed_profiles_are_refused(make, message):
    with pytest.raises(DomainError, match=message):
        make()


def test_cauchy_schwarz_and_unit_contraction():
    form = dl.make_form(get_example('absorb-reflect'))
    rng = random.Random(17)
    for _ in range(10):
        f = tf(0, random_member_profile(rng))
        g = tf(0, random_member_profile(rng))
        eff = dl.energy(form, f, f)
        egg = dl.energy(form, g, g)
        efg = dl.energy(form, f, g)
        assert efg * efg <= eff * egg * (1 + 1e-9) + 1e-12
        clipped = dl.clip_unit(f)
        assert dl.energy(form, clipped, clipped) <= eff * (1 + 1e-9) + 1e-12


def test_clip_unit_clamps_values():
    # the last segment is constant, so neither of its cubics has a root
    prof = dl.linear_profile([0.0, 0.5, 1.0, 1.5], [-0.5, 1.5, 0.0, 0.0])
    clipped = dl.clip_unit(dl.TestFunction(((0, prof),)))
    cp = clipped.profile_for(0)
    for k in range(151):
        u = k / 100.0
        v = cp.value(u)
        want = min(1.0, max(0.0, prof.value(u)))
        assert v == pytest.approx(want, abs=1e-9), u
        assert -1e-12 <= v <= 1.0 + 1e-12


def test_membership_requires_vanishing_exit_limit():
    form = dl.make_form(get_example('exa2'))
    bad = tf(0, dl.ramp_profile(0.5, 1.5, 1.0, 0.0))
    rep = dl.membership(form, bad)
    assert not rep.ok
    assert any("exit" in r and "vanish" in r for r in rep.reasons)
    with pytest.raises(MembershipError):
        dl.require_member(form, bad)
    # vanishing version of the same shape is fine
    good = tf(0, dl.linear_profile([0.0, 0.5, 1.5], [0.0, 1.0, 0.0]))
    assert dl.membership(form, good).ok
    assert dl.require_member(form, good) == dl.membership(form, good)


def test_membership_requires_finite_square_mass():
    form = dl.make_form(get_example('bm'))
    const = tf(0, dl.linear_profile([0.0, 1.0], [1.0, 1.0]))
    rep = dl.membership(form, const)
    assert not rep.ok
    assert any("infinite" in r for r in rep.reasons)
    # compact support restores membership
    bump = tf(0, dl.linear_profile([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]))
    good = dl.membership(form, bump)
    assert good.ok
    assert good.self_energy == pytest.approx(1.0, abs=1e-6)
    assert good.mass == pytest.approx(2.0 * 2.0 / 3.0, rel=1e-5)
    # on split-bm's left component (u = -1/x > 0), the hat on u in
    # [0.5, 1, 2] has F^2 mass int F(u)^2 2/u^2 du = 12 - 16 ln 2 and self
    # energy (1/2)(4 * 0.5 + 1) = 1.5; the right component has no profile
    left = dl.membership(dl.make_form(get_example('split-bm')),
                         tf(0, dl.linear_profile([0.5, 1.0, 2.0], [0.0, 1.0, 0.0])))
    assert left.ok
    assert left.mass == pytest.approx(12.0 - 16.0 * math.log(2.0), rel=1e-6)
    assert left.self_energy == pytest.approx(1.5, abs=1e-6)
    # F = 1 toward x = 0 of a right component: its mass there is infinite
    # by declaration on nonradon, undecided on slow_mass_doc and finite
    # once declared so
    near_zero = tf(1, dl.linear_profile([-3.0, -2.0], [1.0, 0.0]))
    rep = dl.membership(dl.make_form(get_example('nonradon')), near_zero)
    assert rep.reasons == ("component 1: infinite F^2 mass toward the lo end "
                           "(non-vanishing tail against infinite end mass)",)
    rep = dl.membership(dl.make_form(parse_spec(slow_mass_doc())), near_zero)
    assert rep.reasons == ("component 1: undecided F^2 mass toward the lo end; "
                           "declare speed.hints to settle it",)
    declared = dl.make_form(parse_spec(slow_mass_doc({"a": "finite"})))
    assert dl.membership(declared, near_zero).ok


def test_membership_rejects_jumps():
    form = dl.make_form(get_example('absorb-reflect'))
    ind = tf(0, dl.indicator_profile(0.3, 0.6))
    rep = dl.membership(form, ind)
    assert not rep.ok


def test_whole_line_form_checks_need_full_symmetrizability():
    for name in ("exa2", "drift"):
        spec = get_example(name)
        with pytest.raises(NotSymmetrizableError):
            dl.check_regular_form(spec)
        with pytest.raises(NotSymmetrizableError):
            dl.check_adapted(spec)
    with pytest.raises(NotSymmetrizableError):
        dl.make_form(get_example('drift'))


def test_regular_form_on_radon_and_non_radon_measures():
    assert dl.check_regular_form(get_example('bm')).ok
    assert dl.check_regular_form(get_example('split-bm')).ok
    rep = dl.check_regular_form(get_example('nonradon'))
    assert not rep.ok
    with pytest.raises(UndeterminedVerdict, match=r"mass of \[-1.0, 1.0\] undecided"):
        dl.check_regular_form(parse_spec(slow_mass_doc()))


def test_bm_window_masses_are_exact():
    """Density 2 on the whole line: [-k, k] has mass 4k.  Each window is
    one adaptive cell, so no shell tail is left over."""
    rep = dl.check_regular_form(get_example('bm'))
    assert [k for k, _, _ in rep.windows] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    for k, verdict, mass in rep.windows:
        assert verdict == "finite"
        assert mass == pytest.approx(4.0 * k, rel=1e-12)


def test_adaptedness_of_builtin_components(reflect_glue_doc):
    assert dl.check_adapted(get_example('bm')).ok
    assert dl.check_adapted(get_example('split-bm')).ok
    glue = parse_spec(reflect_glue_doc)
    rep = dl.check_adapted(glue)
    assert rep.ok and rep.violations == ()
    # infinite speed mass keeps both sides from the trap at 0, where the
    # scale x stays bounded: symmetrizable without killing, not adapted
    natural = parse_spec({"name": "natural-trap", "pieces": [
        {"kind": "regular_interval", "a": "-inf", "b": "0", "scale": "x",
         "speed": {"density": "1/abs(x)^3"}},
        {"kind": "singular_point", "x": "0", "class": "trap"},
        {"kind": "regular_interval", "a": "0", "b": "inf", "scale": "x",
         "speed": {"density": "1/x^3"}}]})
    assert check_symmetrizable(natural).full
    assert dl.check_adapted(natural).as_dict() == {"ok": False, "violations": [
        {"component": 0, "side": "b", "endpoint": 0.0, "included": False,
         "scale_limit": -9.313225746154785e-10},
        {"component": 1, "side": "a", "endpoint": 0.0, "included": False,
         "scale_limit": 9.313225746154785e-10}]}


def test_atoms_keep_the_measure_radon():
    doc = {"name": "atomized", "pieces": [
        {"kind": "regular_interval", "a": "-inf", "b": "inf", "scale": "x",
         "speed": {"density": "2", "atoms": [{"at": 0.0, "weight": 5.0}]}}]}
    assert dl.check_regular_form(parse_spec(doc)).ok


def _mass_bits(masses):
    return [(verdict, float(value).hex()) for verdict, value in masses]


def _regular_form_matches_one_window_at_a_time(spec):
    """check_regular_form's windows and the batch of all six windows
    equal, bit for bit, one interval_mass per window."""
    report = check_symmetrizable(spec)
    windows = [(-k, k) for k in dl._WINDOWS]
    alone = [report.measure.interval_mass(a, b) for a, b in windows]
    assert _mass_bits(report.measure.interval_masses(windows)) == \
        _mass_bits(alone), spec.name
    if not report.full:
        return
    want = []
    for (_, k), (verdict, value) in zip(windows, alone):
        if verdict == "undetermined":
            with pytest.raises(UndeterminedVerdict, match=f"mass of \\[{-k}, {k}\\]"):
                dl.check_regular_form(spec)
            return
        want.append((float(k), verdict, float(value).hex()))
        if verdict == "infinite":
            break
    rep = dl.check_regular_form(spec)
    assert [(k, v, float(m).hex()) for k, v, m in rep.windows] == want, spec.name
    assert rep.ok is (want[-1][1] == "finite")


def test_regular_form_windows_equal_one_window_at_a_time():
    specs = [get_example(n) for n in list_examples()]
    specs += [parse_spec(random_spec_doc(seed)) for seed in range(20)]
    killed = [spec for spec in specs if check_symmetrizable(spec).killed]
    assert len(killed) > len(list_examples())
    for spec in killed:
        _regular_form_matches_one_window_at_a_time(spec)


def test_an_atom_on_a_window_edge_counts_in_every_window():
    """An atom at x = 1.0 lies on the edge of [-1, 1] and counts there as
    in every wider window; the batch keeps the bits of one window at a
    time."""
    doc = {"name": "edge-atom", "pieces": [
        {"kind": "regular_interval", "a": "-inf", "b": "inf", "scale": "x",
         "speed": {"density": "2", "atoms": [{"at": 1.0, "weight": 5.0}]}}]}
    spec = parse_spec(doc)
    _regular_form_matches_one_window_at_a_time(spec)
    rep = dl.check_regular_form(spec)
    assert rep.ok
    for k, verdict, mass in rep.windows:
        assert verdict == "finite"
        assert mass == pytest.approx(4.0 * k + 5.0, rel=1e-12)


def test_square_mass_counts_the_atoms():
    """Density 2 and an atom of weight 5 at 0.5: the hat F(x) = 1 - |x| on
    [-1, 1] has F^2 mass 2 * 2/3 from the density and 5 * F(0.5)^2 = 5/4
    from the atom; an atom outside the hat's support adds nothing."""
    def atomized(*atoms):
        return parse_spec({"name": f"atoms-{atoms}", "pieces": [
            {"kind": "regular_interval", "a": "-inf", "b": "inf",
             "scale": "x",
             "speed": {"density": "2",
                       "atoms": [{"at": at, "weight": 5.0} for at in atoms]}}]})

    bump = tf(0, dl.linear_profile([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]))
    rep = dl.membership(dl.make_form(atomized(0.5)), bump)
    assert rep.ok
    assert rep.mass == pytest.approx(4.0 / 3.0 + 5.0 / 4.0, rel=1e-6)
    assert rep.self_energy == pytest.approx(1.0, abs=1e-6)
    far = dl.membership(dl.make_form(atomized(3.0)), bump)
    assert far.mass == pytest.approx(4.0 / 3.0, rel=1e-6)


def test_adapted_and_membership_read_scale_limits_from_the_profile(monkeypatch):
    from shuntline import boundary

    bm = get_example('bm')
    bm_form = dl.make_form(bm)
    ar_form = dl.make_form(get_example('absorb-reflect'))
    # a form keeps its tolerance: on a spec analysed only at 1e-8, reading
    # the profile at the default would derive it again
    tight = parse_spec(dict(example_document('bm'), name='bm-form-1e-8'))
    tight_form = dl.make_form(tight, 1e-8)

    def probe_again(*args):
        raise AssertionError("scale_limit probed after the profile was built")

    monkeypatch.setattr(boundary, "scale_limit", probe_again)
    monkeypatch.setattr(dl, "scale_limit", probe_again, raising=False)
    assert dl.check_adapted(bm).ok
    bump = tf(0, dl.linear_profile([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]))
    assert dl.membership(bm_form, bump).ok
    assert dl.membership(tight_form, bump).ok
    # absorb-reflect has an exit endpoint, whose limit must vanish
    good = tf(0, dl.linear_profile([0.0, 0.5, 1.5], [0.0, 1.0, 0.0]))
    assert dl.membership(ar_form, good).ok
    bad = tf(0, dl.linear_profile([0.0, 1.5], [1.0, 0.0]))
    assert not dl.membership(ar_form, bad).ok
