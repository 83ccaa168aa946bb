"""Endpoint analysis: scale limits, approachability, endpoint roles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from shuntline import UndeterminedVerdict, get_example, parse_spec
from shuntline.boundary import (UNDET, approachable, boundary_profile,
                                endpoint_role, scale_limit)
from shuntline.errors import EvalError
from shuntline.expr import parse_expr
from shuntline.model import REGULAR, Piece, eval_scale

from conftest import derivations, spec_from


def one_piece(a, b, scale, density, hints=None):
    speed = {"density": density}
    if hints:
        speed["hints"] = hints
    pieces = []
    if a != "-inf":
        pieces += [{"kind": "trap_segment", "a": "-inf", "b": a},
                   {"kind": "singular_point", "x": a, "class": "trap"}]
    pieces.append({"kind": "regular_interval", "a": a, "b": b,
                   "scale": scale, "speed": speed})
    if b != "inf":
        pieces += [{"kind": "singular_point", "x": b, "class": "trap"},
                   {"kind": "trap_segment", "a": b, "b": "inf"}]
    return spec_from(pieces), len(pieces) - (3 if b != "inf" else 1)


def test_scale_limit_values():
    spec, i = one_piece("0", "inf", "-1/x", "2")
    p = spec.pieces[i]
    assert scale_limit(p, "a") == -math.inf
    assert scale_limit(p, "b") == pytest.approx(0.0, abs=1e-8)
    spec2, j = one_piece("0", "2", "x", "2")
    q = spec2.pieces[j]
    assert scale_limit(q, "a") == pytest.approx(0.0, abs=1e-8)
    assert scale_limit(q, "b") == pytest.approx(2.0, abs=1e-8)


def test_scale_limit_caps_runaway_growth():
    spec, i = one_piece("-inf", "inf", "x^3 + x", "2")
    p = spec.pieces[i]
    assert scale_limit(p, "a") == -math.inf
    assert scale_limit(p, "b") == math.inf


def test_unit_interval_endpoint_integral_is_one():
    """Closed form: from the midpoint anchor of (0, 2) in natural scale
    with density 2, the approach integral to the upper endpoint is
    exactly the unit: int_1^2 (2 - x) * 2 dx = 1."""
    spec, i = one_piece("0", "2", "x", "2")
    p = spec.pieces[i]
    verdict, value = approachable(p, "b")
    assert verdict == "yes"
    assert value == pytest.approx(1.0, abs=2e-5)

    # cross-check against an independent quadrature of the same kernel
    s_lim = scale_limit(p, "b")
    oracle, err = quad(lambda x: (s_lim - eval_scale(p, x)) * 2.0, 1.0, 2.0)
    assert err < 1e-9
    assert value == pytest.approx(oracle, abs=2e-5)


def test_log_scale_origin_is_unapproachable():
    # scale ln x pushes the lower endpoint to scale -inf; the approach
    # integral diverges logarithmically, so the verdict must be no
    glue = get_example('bessel-glue')
    p = glue.pieces[2]
    assert p.scale_src == "ln(x)"
    assert scale_limit(p, "a") == -math.inf
    verdict, _ = approachable(p, "a")
    assert verdict == "no"
    # the adjacent shunt points into this piece but can never be fed
    assert endpoint_role(glue, 2, "a").role == "entrance_unreachable"


def test_verdicts_stable_under_tighter_tolerance():
    spec, i = one_piece("0", "2", "x", "2")
    p = spec.pieces[i]
    for side, want in (("a", "yes"), ("b", "yes")):
        v6, x6 = approachable(p, side, rel_tol=1e-6)
        v8, x8 = approachable(p, side, rel_tol=1e-8)
        assert v6 == v8 == want
        assert x8 == pytest.approx(x6, abs=1e-5)
    glue = get_example('bessel-glue')
    for rel_tol in (1e-6, 1e-8):
        assert approachable(glue.pieces[2], "a", rel_tol=rel_tol)[0] == "no"


def test_undetermined_borderline_and_hint_fallback(borderline_doc):
    spec = parse_spec(borderline_doc)
    p = spec.pieces[2]
    verdict, _ = approachable(p, "b")
    assert verdict == "undetermined"
    with pytest.raises(UndeterminedVerdict) as exc:
        endpoint_role(spec, 2, "b")
    assert "hints" in str(exc.value)

    hinted = dict(borderline_doc)
    hinted["pieces"] = [dict(q) for q in borderline_doc["pieces"]]
    hinted["pieces"][2] = dict(hinted["pieces"][2])
    hinted["pieces"][2]["speed"] = {
        "density": hinted["pieces"][2]["speed"]["density"],
        "hints": {"b": "infinite"}}
    spec2 = parse_spec(hinted)
    verdict2, _ = approachable(spec2.pieces[2], "b")
    assert verdict2 == "no"
    # unreachable endpoint: the adjacent trap never comes into play
    ana = endpoint_role(spec2, 2, "b")
    assert ana.role == "natural"
    assert ana.adjacent_class == "trap"


def test_roles_on_one_way_glue():
    prof = boundary_profile(get_example('exa1'))
    roles = {k: v.role for k, v in prof.items()}
    assert roles == {(0, "a"): "natural", (0, "b"): "glue_to_neighbor",
                     (2, "a"): "included_shunt", (2, "b"): "natural"}
    assert prof[(2, "a")].adjacent_class == "right_shunt"
    assert prof[(0, "b")].boundary_integral == pytest.approx(0.5, abs=2e-5)


def test_roles_on_absorbing_models():
    prof = boundary_profile(get_example('exa2'))
    assert prof[(2, "a")].role == "exit"
    assert prof[(2, "b")].role == "natural"
    prof2 = boundary_profile(get_example('absorb-reflect'))
    assert prof2[(2, "a")].role == "exit"
    assert prof2[(2, "b")].role == "included_shunt"


def test_finite_speed_hint_short_circuits_numerics():
    # an explicit finite-mass promise with a finite scale limit settles
    # approachability before any quadrature runs
    spec, i = one_piece("0", "1", "x", "2", hints={"a": "finite"})
    verdict, _ = approachable(spec.pieces[i], "a")
    assert verdict == "yes"


def test_default_and_explicit_tolerance_share_one_profile():
    from shuntline import check_symmetrizable

    # a spec no other test builds, so nothing is derived for it yet
    spec, _ = one_piece("0", "3", "x", "2.718")
    with derivations(endpoint_role) as runs:
        check_symmetrizable(spec)
        assert runs == {"endpoint_role": 2}  # one per endpoint
        assert boundary_profile(spec) is boundary_profile(spec, 1e-6)
    assert runs == {"endpoint_role": 2}


def test_profile_is_a_read_only_view():
    """A caller cannot change the memo's profile under the later stages."""
    from shuntline import build_graph, check_hunt, example_document

    # a fresh copy of bm, so its profile is derived here
    spec = parse_spec(dict(example_document("bm"), name="bm-read-only"))
    profile = boundary_profile(spec)
    with pytest.raises(TypeError):
        profile[(0, "a")] = None
    assert not hasattr(profile, "clear")
    assert boundary_profile(spec) is profile
    bm = get_example("bm")
    graph, graph_bm = build_graph(spec), build_graph(bm)
    assert (graph.atoms, graph.edges) == (graph_bm.atoms, graph_bm.edges)
    assert check_hunt(spec).as_dict() == check_hunt(bm).as_dict()


def test_tight_verdict_stack_builds_one_profile():
    """Every layer reads the profile at the caller's tolerance."""
    from shuntline import check_symmetrizable, lambda_at, lambda_ap
    from shuntline.dirichlet import check_adapted, check_regular_form

    # a fresh whole-line spec (symmetrizable without killing)
    spec, _ = one_piece("-inf", "inf", "x", "1.618")
    with derivations(endpoint_role) as runs:
        assert check_symmetrizable(spec, 1e-8).full
        assert runs == {"endpoint_role": 2}
        assert check_regular_form(spec, 1e-8).ok
        assert check_adapted(spec, 1e-8).ok
        assert lambda_at(spec, 1e-8) == ()
        assert lambda_ap(spec, literal=True, rel_tol=1e-8) == ()
    assert runs == {"endpoint_role": 2}


def test_endpoint_role_probes_each_scale_limit_once(monkeypatch):
    import shuntline.boundary as bd

    real = bd.scale_limit
    calls = []

    def counting(piece, side):
        calls.append(side)
        return real(piece, side)

    monkeypatch.setattr(bd, "scale_limit", counting)
    for name in ("exa1", "exa2", "absorb-reflect"):
        spec = get_example(name)
        for i in spec.regular_indices():
            for side in ("a", "b"):
                calls.clear()
                ana = endpoint_role(spec, i, side)
                assert calls == [side]
                assert ana.scale_limit == real(spec.pieces[i], side)


def _regular(a, b, scale):
    return Piece(REGULAR, a=a, b=b, scale_src=scale, scale=parse_expr(scale))


def _limit_or_error(piece, side):
    try:
        return scale_limit(piece, side)
    except EvalError as exc:
        return f"EvalError: {exc}"


SCALE_CASES = {
    # settles near probe 30; the probes from 44 on give ln of a negative
    # number, inside the same array chunk
    "nan-beyond-settling": ((0.0, 1.0, "x + 0 * ln(1 - 1e-13 - x)"), "b", 1.0),
    "oscillation": ((0.0, 1.0, "x + 0.1 * x * sin(1 / (1 - x))"), "b",
                    "EvalError: scale oscillates toward endpoint b = 1.0"),
    "nan-at-first-probe": ((0.0, 1.0, "ln(x - 0.75)"), "a",
                           "EvalError: expression undefined at x = 0.25"),
    "cap": ((-math.inf, math.inf, "x^3 + x"), "a", -math.inf),
    "log-stall": ((0.0, math.inf, "ln(x)"), "b", math.inf),
    "infinite-value": ((0.0, 1.0, "0 - 1 / x^400"), "a", -math.inf),
    "settles": ((0.0, math.inf, "0 - 1 / x"), "b", 0.0),
}


@pytest.mark.parametrize("name", sorted(SCALE_CASES))
def test_array_probes_match_scalar_probes(name, monkeypatch):
    """The probes are evaluated in array chunks; the limit, or the error,
    is the one of a scalar evaluation per probe, read from the same
    stopping rules."""
    from shuntline import boundary
    (a, b, scale), side, want = SCALE_CASES[name]
    piece = _regular(a, b, scale)
    got = _limit_or_error(piece, side)
    if isinstance(want, str):
        assert got == want
    else:
        assert got == pytest.approx(want, abs=1e-8)

    array_eval = boundary.evaluate

    def scalar_only(e, x):
        if isinstance(x, np.ndarray):
            raise EvalError("arrays refused")
        return array_eval(e, x)

    monkeypatch.setattr(boundary, "evaluate", scalar_only)
    scalar = _limit_or_error(piece, side)
    assert type(scalar) is type(got)
    assert (scalar.hex() == got.hex() if isinstance(got, float)
            else scalar == got)


def test_a_chunk_that_raises_falls_back_to_scalar_probes(monkeypatch):
    from shuntline import boundary
    piece = _regular(0.0, 1.0, "x + 0 * ln(1 - 1e-13 - x)")
    calls = []
    array_eval = boundary.evaluate

    def counted(e, x):
        calls.append(np.size(x))
        return array_eval(e, x)

    monkeypatch.setattr(boundary, "evaluate", counted)
    assert scale_limit(piece, "b") == pytest.approx(1.0, abs=1e-8)
    # the first chunk of 16 probes, the failed second chunk of 32, then
    # that chunk's probes one by one until the limit settles
    assert calls[:2] == [16, 32]
    assert set(calls[2:]) == {1} and len(calls) < 2 + 32


def test_a_positive_factor_on_the_density_refuses_alike():
    """Toward +inf the approach integrand of scale -1/x and density
    c * x^-0.07 is c * x^-1.07, whose shells shrink by 2^-0.07 a shell:
    too slowly for a verdict within the shells at any c, so endpoint b
    is refused at c = 1e7 exactly as at c = 1."""
    refusals = []
    for density in ("x^(-0.07)", "1e7*x^(-0.07)"):
        spec = spec_from([
            {"kind": "trap_segment", "a": "-inf", "b": "0"},
            {"kind": "singular_point", "x": "0", "class": "trap"},
            {"kind": "regular_interval", "a": "0", "b": "+inf",
             "scale": "-1/x", "speed": {"density": density}}],
            name=f"slow-tail-{density}")
        verdict, _ = approachable(spec.pieces[2], "b")
        assert verdict == UNDET, density
        with pytest.raises(UndeterminedVerdict) as refusal:
            boundary_profile(spec)
        refusals.append(str(refusal.value))
    assert refusals[0] == refusals[1]
    assert "endpoint b = inf of piece 2" in refusals[0]


def test_refused_profile_is_cached(borderline_doc, monkeypatch):
    """A refusal is memoized like a profile: the second call raises the
    same message without any quadrature, and so do the graph and the
    Hunt verdict built on it."""
    from shuntline import GraphBuildError, boundary, build_graph, check_hunt
    calls = []
    integrate = boundary.improper_integrals

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(boundary, "improper_integrals", counted)
    # a name no other test uses, so no refusal is cached for it yet
    spec = parse_spec(dict(borderline_doc, name="borderline-memo"))
    with pytest.raises(UndeterminedVerdict) as first:
        boundary_profile(spec)
    assert calls
    calls.clear()
    with derivations(boundary.endpoint_role) as runs:
        with pytest.raises(UndeterminedVerdict) as second:
            boundary_profile(spec)
        with pytest.raises(GraphBuildError) as graph:
            build_graph(spec)
        with pytest.raises(GraphBuildError) as hunt:
            check_hunt(spec, 1e-6)
    assert calls == [] and runs == {}
    assert str(second.value) == str(first.value)
    assert str(graph.value) == str(hunt.value) == str(first.value)
    assert "hints" in str(second.value)
