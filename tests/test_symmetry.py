"""Symmetrizing measures: verdicts, component geometry, measure family."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shuntline import (DomainError, NotSymmetrizableError, check_symmetrizable,
                       get_example, list_examples, parse_spec, validate)
from shuntline.symmetry import (canonical_measure, lambda_ap, lambda_at,
                                measure_family)

from conftest import mirrored_doc


# (killed, full) per builtin model
EXPECTED = {
    "bm": (True, True),
    "drift": (False, False),
    "bessel-glue": (False, False),
    "exa1": (False, False),
    "exa2": (True, False),
    "absorb-reflect": (True, False),
    "split-bm": (True, True),
    "nonradon": (True, True),
}


def test_verdict_table():
    for name, (killed, full) in EXPECTED.items():
        rep = check_symmetrizable(get_example(name))
        assert rep.killed is killed, name
        assert rep.full is full, name


def test_two_sided_shunt_point_blocks_everything():
    rep = check_symmetrizable(get_example('exa1'))
    assert rep.hunt_holds
    assert rep.lambda_ap == (0.0,)
    assert not rep.killed and not rep.full
    assert "both sides" in rep.reason
    # the reachability-based detector agrees with the endpoint gloss
    assert lambda_ap(get_example('exa1'), literal=True) == (0.0,)


def test_reachable_trap_blocks_only_the_unkilled_form():
    rep = check_symmetrizable(get_example('exa2'))
    assert rep.killed and not rep.full
    assert rep.lambda_ap == ()
    assert rep.lambda_at == (0.0,)
    assert "after killing" in rep.reason
    assert lambda_at(get_example('exa2')) == (0.0,)


def test_unreachable_traps_do_not_block():
    rep = check_symmetrizable(get_example('split-bm'))
    assert rep.killed and rep.full
    assert rep.lambda_at == ()
    assert rep.reason == "symmetrizable without killing"


def test_component_geometry():
    rep = check_symmetrizable(get_example('absorb-reflect'))
    (c,) = rep.components
    assert (c.lo, c.hi) == (0.0, 1.0)
    assert not c.lo_closed and c.hi_closed    # reflecting end included
    assert c.exit_sides == ("a",)

    rep2 = check_symmetrizable(get_example('split-bm'))
    assert [(c.lo, c.hi) for c in rep2.components] == [
        (-math.inf, 0.0), (0.0, math.inf)]
    assert all(c.exit_sides == () for c in rep2.components)


def test_canonical_measure_entries():
    m = canonical_measure(get_example('bm'))
    (e,) = m.entries
    assert (e.lo, e.hi, e.density_src, e.weight) == (-math.inf, math.inf, "2", 1.0)
    verdict, value = m.interval_mass(0.0, 3.0)
    assert verdict == "finite" and value == pytest.approx(6.0, rel=1e-7)

    m2 = canonical_measure(get_example('absorb-reflect'))
    regular_entries = [e for e in m2.entries if e.component >= 0]
    (e2,) = regular_entries
    assert (e2.lo, e2.hi, e2.hi_closed) == (0.0, 1.0, True)
    verdict, value = m2.interval_mass(0.2, 0.8)
    assert verdict == "finite" and value == pytest.approx(1.2, rel=1e-7)


def test_declared_infinite_endpoint_mass_short_circuits():
    m = canonical_measure(get_example('nonradon'))
    entry = [e for e in m.entries if e.component == 1][0]
    assert entry.hint_lo == "infinite"
    verdict, _ = m.interval_mass(0.0, 1.0)
    assert verdict == "infinite"
    # away from the declared endpoint the mass is an honest number
    verdict2, value2 = m.interval_mass(1.0, math.e)
    assert verdict2 == "finite" and value2 == pytest.approx(1.0, rel=1e-6)


def test_measure_family_scales_components_independently():
    fam = measure_family(get_example('split-bm'), [3.0, 5.0])
    weights = {e.component: e.weight for e in fam.entries}
    assert weights == {0: 3.0, 1: 5.0}
    _, left = fam.interval_mass(-1.0, 0.0)
    _, right = fam.interval_mass(0.0, 1.0)
    assert left == pytest.approx(6.0, rel=1e-7)
    assert right == pytest.approx(10.0, rel=1e-7)


def test_window_cut_inside_an_entry_is_one_cell(monkeypatch):
    """Cuts strictly inside an entry are not singular: the mass of
    [-1, 1] under bm's measure is one adaptive cell and no shells, one
    density call on its 21 first-round nodes."""
    from shuntline import symmetry

    sizes = []
    real = symmetry.evaluate

    def counted(e, x):
        sizes.append(np.size(x))
        return real(e, x)

    m = canonical_measure(get_example('bm'))
    monkeypatch.setattr(symmetry, "evaluate", counted)
    verdict, value = m.interval_mass(-1.0, 1.0)
    assert (verdict, value) == ("finite", pytest.approx(4.0, rel=1e-12))
    assert sizes == [21]


def test_measure_family_rejects_bad_coefficients():
    spec = get_example('split-bm')
    with pytest.raises(DomainError):
        measure_family(spec, [1.0])            # wrong arity
    with pytest.raises(DomainError):
        measure_family(spec, [1.0, 0.0])       # not strictly positive
    with pytest.raises(DomainError):
        measure_family(spec, [1.0, -2.0])


def test_not_symmetrizable_models_refuse_measures():
    for name in ("drift", "bessel-glue", "exa1"):
        with pytest.raises(NotSymmetrizableError):
            canonical_measure(get_example(name))
        with pytest.raises(NotSymmetrizableError):
            measure_family(get_example(name), [1.0])


def test_verdicts_invariant_under_mirror():
    from shuntline.examples import example_document
    for name in list_examples():
        spec_m = parse_spec(mirrored_doc(example_document(name)))
        killed, full = EXPECTED[name]
        try:
            rep = check_symmetrizable(spec_m)
        except NotSymmetrizableError:
            assert not killed
            continue
        assert rep.killed is killed, name
        assert rep.full is full, name


# A trap segment, a left shunt at 0, then a regular interval: the upward
# limit of the trap forces class right_shunt or trap at 0, so the point
# breaks closedness.
CLOSEDNESS_BREAK = {"name": "closedness-break", "pieces": [
    {"kind": "trap_segment", "a": "-inf", "b": "0"},
    {"kind": "singular_point", "x": "0", "class": "left_shunt"},
    {"kind": "regular_interval", "a": "0", "b": "inf",
     "scale": "x", "speed": {"density": "2"}}]}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_spec_that_breaks_closedness_is_refused(flags):
    """The library does not validate first, so ``check_symmetrizable``
    meets the broken point itself; it refuses with an InvalidSpecError
    that names the rule, also under ``python -O``, which strips asserts."""
    assert [v.code for v in validate(parse_spec(CLOSEDNESS_BREAK))
            .violations] == ["closedness"]
    code = ("from shuntline import InvalidSpecError, check_symmetrizable, "
            "parse_spec\n"
            f"spec = parse_spec({CLOSEDNESS_BREAK!r})\n"
            "try:\n"
            "    print('answered', check_symmetrizable(spec).as_dict())\n"
            "except InvalidSpecError as exc:\n"
            "    print('refused:', exc)\n")
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "refused: spec breaks the closedness rule (see validate): component "
        "closures RealSet((0.0, inf)) do not tile the complement of the trap "
        "set RealSet([0.0, inf))\n")
