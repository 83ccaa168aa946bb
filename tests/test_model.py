"""Spec documents: parsing, structure audit, serialization, speed measure."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from shuntline import (DomainError, QuadratureError, SpecParseError,
                       get_example, parse_spec, serialize_spec, spec_digest,
                       validate)
from shuntline.cli import main
from shuntline.expr import evaluate
from shuntline.model import (_ATOM, _HINT, _PIECE, _REQUIRED, _SPEC, _SPEED,
                             _interior_grid, eval_scale, eval_speed_mass)

from conftest import random_spec_doc, spec_from


def test_parse_and_round_trip_all_builtins():
    from shuntline import list_examples
    for name in list_examples():
        spec = get_example(name)
        assert validate(spec).ok, name
        doc = json.loads(serialize_spec(spec))
        again = parse_spec(doc)
        assert spec_digest(again) == spec_digest(spec), name


def test_digest_is_stable():
    # frozen so report caching and golden files stay comparable
    d = spec_digest(get_example('bm'))
    assert isinstance(d, str) and len(d) >= 12
    assert d == spec_digest(get_example('bm'))
    assert d != spec_digest(get_example('drift'))


def test_structure_rejects_gap_overlap_and_missing_point():
    with pytest.raises(SpecParseError):
        spec_from([
            {"kind": "regular_interval", "a": "-inf", "b": "0",
             "scale": "x", "speed": {"density": "2"}},
            {"kind": "regular_interval", "a": "1", "b": "inf",
             "scale": "x", "speed": {"density": "2"}}])  # gap (0, 1)
    with pytest.raises(SpecParseError):
        spec_from([
            {"kind": "regular_interval", "a": "-inf", "b": "1",
             "scale": "x", "speed": {"density": "2"}},
            {"kind": "singular_point", "x": "0", "class": "trap"},
            {"kind": "regular_interval", "a": "0", "b": "inf",
             "scale": "x", "speed": {"density": "2"}}])  # overlap
    with pytest.raises(SpecParseError):
        spec_from([
            {"kind": "regular_interval", "a": "-inf", "b": "0",
             "scale": "x", "speed": {"density": "2"}},
            {"kind": "regular_interval", "a": "0", "b": "inf",
             "scale": "x", "speed": {"density": "2"}}])  # adjacent, no point
    with pytest.raises(SpecParseError):
        spec_from([{"kind": "regular_interval", "a": "0", "b": "1",
                    "scale": "x", "speed": {"density": "2"}}])  # not whole line


def test_validate_flags_nonmonotone_scale():
    spec = spec_from([{"kind": "regular_interval", "a": "-inf", "b": "inf",
                       "scale": "sin(x)", "speed": {"density": "2"}}])
    rep = validate(spec)
    assert not rep.ok
    assert any(v.code == "scale_monotone" for v in rep.violations)


def test_validate_flags_closedness_conflicts():
    # a rightward shunt segment forces its upper endpoint to absorb or
    # keep shunting right; a left shunt there is inconsistent
    spec = spec_from([
        {"kind": "shunt_segment", "a": "-inf", "b": "0", "direction": "right"},
        {"kind": "singular_point", "x": "0", "class": "left_shunt"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "x", "speed": {"density": "2"}}])
    rep = validate(spec)
    assert any(v.code == "closedness" for v in rep.violations)

    # mirrored situation on the other side
    spec2 = spec_from([
        {"kind": "regular_interval", "a": "-inf", "b": "0",
         "scale": "x", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "0", "class": "right_shunt"},
        {"kind": "trap_segment", "a": "0", "b": "inf"}])
    rep2 = validate(spec2)
    assert any(v.code == "closedness" for v in rep2.violations)


def test_validate_flags_bad_atom_weight():
    """An atom weight must be positive and finite: nan and inf are flagged,
    as are 0 and negative weights."""
    for weight, ok in [(-1.0, False), (0, False), ("nan", False),
                       ("inf", False), ("-inf", False), (1e-300, True), (2, True)]:
        spec = spec_from([{"kind": "regular_interval", "a": "-inf", "b": "inf",
                           "scale": "x",
                           "speed": {"density": "2",
                                     "atoms": [{"at": 0.5, "weight": weight}]}}])
        codes = [v.code for v in validate(spec).violations]
        assert codes == ([] if ok else ["atom_weight"]), weight


def _gap_spec(density, atoms=()):
    return spec_from([{"kind": "regular_interval", "a": "-inf", "b": "inf",
                       "scale": "x",
                       "speed": {"density": density,
                                 "atoms": [{"at": at, "weight": 1.0}
                                           for at in atoms]}}])


def _support_gaps_by_chunk_scan(spec):
    """The support audit as eight scans of np.array_split chunks: the
    message of the first chunk with no sampled mass and no atom."""
    p = spec.pieces[0]
    grid = _interior_grid(p.a, p.b)
    dvals = evaluate(p.speed.density, grid)
    for ch in np.array_split(np.arange(len(grid)), 8):
        xs = grid[ch]
        if np.all(dvals[ch] == 0) and not any(
                xs[0] <= at <= xs[-1] for at, _ in p.speed.atoms):
            return [f"no sampled mass on ({xs[0]:.6g}, {xs[-1]:.6g})"]
    return []


def test_validate_flags_a_chunk_without_sampled_mass():
    """The grid's first chunk ends near x = tan(-3 pi / 8) = -2.414: a
    density that is 0 below -2 leaves it empty, and an atom inside it
    restores the support."""
    rep = validate(_gap_spec("piecewise(0 if x < -2, 2)"))
    assert [v.code for v in rep.violations] == ["support_gap"]
    assert rep.violations[0].message == \
        "no sampled mass on (-318310, -2.4142)"
    assert validate(_gap_spec("piecewise(0 if x < -2, 2)", [-3.0])).ok
    cases = [("piecewise(0 if x < -2, 2)", ()),
             ("piecewise(0 if x < -2, 2)", (-2.41421356237,)),
             ("piecewise(1 if x < 0, 0 if x < 1, 1)", ()),
             ("piecewise(0 if x < 0.5, 1)", ()),
             ("piecewise(0 if x < 0.5, 1)", (0.0, 0.3, 1e3)),
             ("piecewise(0 if x < 0.5, 1)", (-1.0, 0.0, 0.3)),
             ("piecewise(1 if x < 2, 0)", ()),
             ("0", ()), ("0", (0.0,)), ("abs(x)", ()), ("2", ())]
    for density, atoms in cases:
        spec = _gap_spec(density, atoms)
        got = [v.message for v in validate(spec).violations
               if v.code == "support_gap"]
        assert got == _support_gaps_by_chunk_scan(spec), (density, atoms)


def test_unknown_example_name():
    with pytest.raises(DomainError):
        get_example("no-such-model")


def test_eval_scale_and_speed_mass():
    spec = spec_from([{"kind": "regular_interval", "a": "-inf", "b": "inf",
                       "scale": "x^3 + x",
                       "speed": {"density": "2",
                                 "atoms": [{"at": 1.0, "weight": 5.0}]}}])
    p = spec.pieces[0]
    assert eval_scale(p, 2.0) == pytest.approx(10.0, rel=1e-15)
    # mass of (0, 2) = Lebesgue part + the atom at 1
    assert eval_speed_mass(p, 0.0, 2.0) == pytest.approx(9.0, rel=1e-9)
    # additivity across a split point
    left = eval_speed_mass(p, 0.0, 1.5)
    right = eval_speed_mass(p, 1.5, 2.0)
    assert left + right == pytest.approx(9.0, rel=1e-9)
    # atoms strictly inside (u, v) count; one exactly on a cut belongs
    # to neither side, so callers place cell edges off the atoms
    assert eval_speed_mass(p, 0.0, 1.0) == pytest.approx(2.0, rel=1e-9)
    assert eval_speed_mass(p, 1.0, 2.0) == pytest.approx(2.0, rel=1e-9)


def test_random_specs_parse_and_validate():
    for seed in range(40):
        doc = random_spec_doc(seed)
        spec = parse_spec(doc)
        rep = validate(spec)
        assert rep.ok, (seed, rep.violations)


def test_hints_round_trip():
    doc = {"name": "hinted", "pieces": [
        {"kind": "regular_interval", "a": "-inf", "b": "inf",
         "scale": "x", "speed": {"density": "2",
                                 "hints": {"a": "infinite", "b": "finite"}}}]}
    spec = parse_spec(doc)
    assert spec.pieces[0].speed.hint_a == "infinite"
    assert spec.pieces[0].speed.hint_b == "finite"
    doc2 = json.loads(serialize_spec(spec))
    assert spec_digest(parse_spec(doc2)) == spec_digest(spec)


def test_speed_mass_reports_failures_and_infinite_ends():
    spec = spec_from([{"kind": "regular_interval", "a": "-inf", "b": "inf",
                       "scale": "x", "speed": {"density": "exp(-abs(x))"}}])
    p = spec.pieces[0]
    assert eval_speed_mass(p, 0.0, math.inf) == pytest.approx(1.0, rel=1e-6)
    assert eval_speed_mass(p, -math.inf, math.inf) == pytest.approx(2.0, rel=1e-6)
    flat = spec_from([{"kind": "regular_interval", "a": "-inf", "b": "inf",
                       "scale": "x", "speed": {"density": "2"}}]).pieces[0]
    assert eval_speed_mass(flat, 1.0, math.inf) == math.inf
    # a million periods per subinterval: a tolerance failure, not inf mass
    wild = spec_from([{"kind": "regular_interval", "a": "-inf", "b": "inf",
                       "scale": "x",
                       "speed": {"density": "2 + sin(1e9 * x)"}}]).pieces[0]
    with pytest.raises(QuadratureError):
        eval_speed_mass(wild, 1.0, 2.0)


def _positive_half_line(density):
    """The regular piece (0, inf) with scale x and the given density."""
    return spec_from([
        {"kind": "regular_interval", "a": "-inf", "b": "0", "scale": "x",
         "speed": {"density": "1"}},
        {"kind": "singular_point", "x": 0, "class": "trap"},
        {"kind": "regular_interval", "a": "0", "b": "inf", "scale": "x",
         "speed": {"density": density}}]).pieces[2]


def test_speed_mass_runs_shells_toward_piece_endpoints():
    """A piece endpoint is an improper end: 1/x diverges toward 0 on
    both (0, 1) and (0, inf), and x^-0.5 integrates to 2 on (0, 1) up
    to the shell policy's tail."""
    inv = _positive_half_line("1/x")
    assert eval_speed_mass(inv, 0.0, 1.0) == math.inf
    assert eval_speed_mass(inv, 0.0, math.inf) == math.inf
    assert eval_speed_mass(inv, 1.0, 2.0) == pytest.approx(math.log(2.0), rel=1e-12)
    root = _positive_half_line("x^(-0.5)")
    assert eval_speed_mass(root, 0.0, 1.0) == pytest.approx(2.0, rel=5e-8)


def _every_field_doc():
    """A spec document that gives every field of every document object."""
    return {"name": "every-field", "description": "one of each field", "pieces": [
        {"kind": "shunt_segment", "a": "-inf", "b": 0, "direction": "right",
         "reach": "partial:-1"},
        {"kind": "singular_point", "x": 0, "class": "right_shunt"},
        {"kind": "regular_interval", "a": 0, "b": 1, "scale": "x",
         "speed": {"density": "2", "atoms": [{"at": 0.5, "weight": 1}],
                   "hints": {"a": "finite", "b": "finite"}}},
        {"kind": "singular_point", "x": 1, "class": "trap"},
        {"kind": "trap_segment", "a": 1, "b": "+inf"}]}


# where each document object of _every_field_doc sits, the path its
# refusals name, and the parser table that reads it
_OBJECTS = [
    ((), "spec", _SPEC),
    (("pieces", 0), "piece 0", _PIECE["shunt_segment"]),
    (("pieces", 1), "piece 1", _PIECE["singular_point"]),
    (("pieces", 2), "piece 2", _PIECE["regular_interval"]),
    (("pieces", 4), "piece 4", _PIECE["trap_segment"]),
    (("pieces", 2, "speed"), "piece 2: speed", _SPEED),
    (("pieces", 2, "speed", "hints"), "piece 2: speed: hints", _HINT),
    (("pieces", 2, "speed", "atoms", 0), "piece 2: speed: atom 0", _ATOM),
]

# values that every field of the name refuses ("a" and "b" name both
# interval ends and endpoint hints); "at": "half", "atoms": 5 and
# "weight": None once escaped the parser as ValueError and TypeError, and
# 10 ** 400 overflows a float
_BAD_VALUES = {
    "name": [None, 5, ""], "description": [None, 5], "pieces": [{}, "p"],
    "kind": [None, "circle", ["trap_segment"]],
    "a": [None, True, "half", [0]], "b": [None, True, "half", [0]],
    "x": [None, False, "half", "+inf", "nan"],
    "class": [None, "regular"], "direction": [None, "up"],
    "reach": [None, 5, "none", "partial", "partial:half"],
    "scale": [None, 5, "", "x +", "(" * 3000 + "x" + ")" * 3000],
    "speed": [[]], "density": [None, "2 *"], "atoms": [5, {}, "atoms"],
    "hints": [[]], "at": [None, "half", 10 ** 400], "weight": [None, "heavy", [1]],
}


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _edit(path, value=None, drop=False):
    """_every_field_doc with the item at path replaced, or dropped."""
    if not path:
        return value
    doc = _every_field_doc()
    if drop:
        del _at(doc, path[:-1])[path[-1]]
    else:
        _at(doc, path[:-1])[path[-1]] = value
    return doc


def _with_pieces(*edits):
    """The pieces of _every_field_doc after the edits (index, piece or
    None to drop it), applied from the highest index down."""
    pieces = _every_field_doc()["pieces"]
    for i, piece in sorted(edits, key=lambda e: -e[0]):
        if piece is None:
            del pieces[i]
        else:
            pieces[i] = piece
    return {"name": "bad", "pieces": pieces}


def _refusal_cases():
    """(document, the start of its refusal) for every refusal of the
    parser: each table's non-object, unknown, missing and bad-value cases,
    each rule across fields, each structure rule and the JSON text."""
    cases = []
    for path, where, table in _OBJECTS:
        cases.append((_edit(path, 5), f"{where}: must be an object"))
        unknown = _every_field_doc()
        _at(unknown, path)["colour"] = "red"
        cases.append((unknown, f"{where}: unknown field(s) ['colour']"))
        for name, (_, default) in table.items():
            if default is _REQUIRED:
                cases.append((_edit(path + (name,), drop=True), f"{where}: {name}: missing"))
            for value in _BAD_VALUES[name]:
                cases.append((_edit(path + (name,), value), f"{where}: {name}: "))
    trap = {"kind": "trap_segment", "a": 1, "b": "+inf"}
    point = {"kind": "singular_point", "x": 0, "class": "trap"}
    cases += [
        # rules across fields
        (_edit(("pieces", 4, "b"), 1), "piece 4: b: needs a < b"),
        (_edit(("pieces", 0, "reach"), "partial:0"),
         "piece 0: reach: partial reach point must lie inside"),
        (_edit(("pieces", 2, "speed", "atoms", 0, "at"), 1.5),
         "piece 2: speed: atom 0: at: 1.5 outside closed interval"),
        # the structure of the piece list
        (_edit(("pieces",), []), "spec has no pieces"),
        (_with_pieces((3, trap), (4, {"kind": "singular_point", "x": 1, "class": "trap"})),
         "pieces must be listed in ascending order"),
        (_with_pieces((0, point), (1, {**trap, "a": 0, "b": "inf"}), (2, None),
                      (3, None), (4, None)),
         "piece 0: singular_point at 0.0 must follow an interval piece"),
        (_with_pieces((2, point), (3, None), (4, None)),
         "piece 2: singular_point at 0.0 must follow an interval piece"),
        (_with_pieces((1, {**point, "x": -1})), "piece 1: overlap at -1.0"),
        (_with_pieces((0, {**trap, "a": "-inf", "b": -1})), "piece 1: coverage gap before 0.0"),
        (_with_pieces((2, {**trap, "a": 0.5, "b": 1})), "piece 2: coverage gap on (0.0, 0.5)"),
        (_with_pieces((1, None), (2, {**trap, "a": -1, "b": 1})), "piece 1: overlap at -1.0"),
        (_with_pieces((1, None)),
         "piece 1: boundary 0.0 between interval pieces needs an explicit singular_point"),
        (_with_pieces((4, None)), "pieces must cover the line up to +inf"),
        (_with_pieces((4, {**trap, "b": 5})), "pieces must cover the line up to +inf"),
        # JSON text
        ("{", "invalid JSON"),
        (b'{"name": "\xff"}', "invalid JSON"),
        ("[" * 100000, "invalid JSON"),
    ]
    return cases


@pytest.mark.parametrize("doc, expect", _refusal_cases())
def test_every_refusal_is_a_spec_parse_error_naming_its_field(doc, expect, tmp_path, capsys):
    """parse_spec refuses every bad document with a SpecParseError that
    starts with the path of the field, and `validate --spec` prints it as
    its one error line and exits 1."""
    with pytest.raises(SpecParseError) as info:
        parse_spec(doc)
    assert str(info.value).startswith(expect)
    path = tmp_path / "bad.json"
    if isinstance(doc, str):
        path.write_text(doc)
    elif isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    assert main(["validate", "--spec", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"shuntline validate: error: {expect}")
    assert err.count("\n") == 1


def test_the_refusal_cases_cover_every_field_of_every_table():
    tables = [table for _, _, table in _OBJECTS]
    assert sorted(map(id, tables)) == sorted(
        map(id, [_SPEC, _SPEED, _HINT, _ATOM, *_PIECE.values()]))
    assert set(_BAD_VALUES) == {name for table in tables for name in table}
    spec = parse_spec(_every_field_doc())
    assert validate(spec).ok
    assert spec_digest(parse_spec(serialize_spec(spec))) == spec_digest(spec)


def test_readme_spec_section_names_exactly_the_parsed_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Spec documents\n")[1].split("\n## ")[0]
    named = set(re.findall(r'"(\w+)"\s*:', section))
    tables = [_SPEC, _SPEED, _HINT, _ATOM, *_PIECE.values()]
    assert named == {name for table in tables for name in table}
