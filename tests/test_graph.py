"""Directed communication structure over pieces, points and infinities."""

import math

import pytest

from shuntline import DomainError, GraphBuildError, get_example, parse_spec
from shuntline.graph import build_graph, communication_classes, reaches

from conftest import spec_from


def test_one_way_glue_atoms_and_edges():
    G = build_graph(get_example('exa1'))
    kinds = [a.kind for a in G.atoms]
    assert kinds == ["cemetery", "regular", "point", "regular", "cemetery"]
    assert G.atoms[2].point_class == "right_shunt"
    # left interval feeds the point, the point feeds only the right
    # interval, and the right interval returns to the point
    assert G.edges == frozenset({(1, 1), (1, 2), (2, 3), (3, 3), (3, 2)})


def test_reaches_is_directional_on_one_way_glue():
    G = build_graph(get_example('exa1'))
    assert reaches(G, -1.0, 1.0)
    assert not reaches(G, 1.0, -1.0)
    assert reaches(G, -1.0, 0.0) and reaches(G, 1.0, 0.0)
    assert reaches(G, 0.0, 1.0) and not reaches(G, 0.0, -1.0)
    # the shunt point is revisited via the right interval
    assert reaches(G, 0.0, 0.0)


def test_reaches_on_whole_line_diffusion():
    G = build_graph(get_example('bm'))
    assert reaches(G, 0.0, 7.0) and reaches(G, 7.0, 0.0)
    assert reaches(G, 0.0, 0.0)
    # infinities are never attained in finite time, nor left
    assert not reaches(G, 0.0, math.inf)
    for end in (-math.inf, math.inf):
        with pytest.raises(DomainError, match="source must be finite"):
            reaches(G, end, 0.0)


def test_one_way_segment_never_returns():
    G = build_graph(get_example('drift'))
    assert reaches(G, 0.0, 5.0)
    assert not reaches(G, 5.0, 0.0)
    assert not reaches(G, 0.0, 0.0)
    assert not reaches(G, 0.0, math.inf)
    left = build_graph(spec_from([
        {"kind": "shunt_segment", "a": "-inf", "b": "inf", "direction": "left"}]))
    assert reaches(left, 5.0, 0.0)
    assert not reaches(left, 0.0, 5.0)


def test_traps_are_sinks():
    G = build_graph(get_example('exa2'))
    assert reaches(G, -3.0, -3.0)        # staying put still counts
    assert reaches(G, 0.0, 0.0)          # on the trap point too
    assert not reaches(G, -3.0, -2.0)
    assert reaches(G, 2.0, 0.0)          # exit endpoint is attainable
    assert not reaches(G, 0.0, 2.0)


def test_partial_reach_barrier_splits_segment():
    spec = spec_from([
        {"kind": "shunt_segment", "a": "-inf", "b": "0",
         "direction": "right", "reach": "partial:-1"},
        {"kind": "singular_point", "x": "0", "class": "right_shunt"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "x/2", "speed": {"density": "2"}}])
    G = build_graph(spec)
    blocked = [a for a in G.atoms if a.blocked]
    assert len(blocked) == 1 and (blocked[0].lo, blocked[0].hi) == (-math.inf, -1.0)
    # upstream of the barrier: moves inside, never attains the barrier
    assert reaches(G, -2.0, -1.5)
    assert not reaches(G, -2.0, -1.0)
    assert not reaches(G, -2.0, 1.0)
    # downstream continues through the shunt point into the half line
    assert reaches(G, -1.0, -0.5)
    assert reaches(G, -0.5, 1.0)
    # mirrored: the barrier belongs to the downstream half on its left
    mirror = build_graph(spec_from([
        {"kind": "regular_interval", "a": "-inf", "b": "0",
         "scale": "x/2", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "0", "class": "left_shunt"},
        {"kind": "shunt_segment", "a": "0", "b": "inf",
         "direction": "left", "reach": "partial:1"}]))
    down = mirror.atoms[mirror.locate(1.0)]
    assert (down.lo, down.hi, down.blocked) == (0.0, 1.0, False)
    with pytest.raises(DomainError, match="no atom holds nan"):
        mirror.locate(math.nan)


def test_transitivity_spot_checks():
    G = build_graph(get_example('absorb-reflect'))
    xs = [0.2, 0.5, 0.8]
    for x in xs:
        for y in xs:
            assert reaches(G, x, y)
    assert reaches(G, 0.5, 0.0)      # absorbing exit
    assert reaches(G, 0.5, 1.0)      # reflecting end is attained
    assert not reaches(G, 0.0, 0.5)  # but never left again
    assert not reaches(G, 1.5, 0.5)


def test_communication_classes_shapes():
    cc = communication_classes(build_graph(get_example('exa2')))
    assert cc.interval_classes == ((0.0, math.inf, True, False),)
    assert cc.singleton_ranges == ((-math.inf, 0.0),)
    assert cc.ring_contains(1.0) and not cc.ring_contains(0.0)

    cc2 = communication_classes(build_graph(get_example('bm')))
    assert cc2.interval_classes == ((-math.inf, math.inf, False, False),)
    assert cc2.singleton_ranges == ()


def test_undecidable_endpoint_surfaces_as_graph_error(borderline_doc):
    with pytest.raises(GraphBuildError) as exc:
        build_graph(parse_spec(borderline_doc))
    assert "hints" in str(exc.value)
