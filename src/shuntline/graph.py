"""Directed reachability between pieces, points and the two infinities.

Atoms are the piece interiors, the singular points, and cemetery nodes
for -inf/+inf.  A shunt segment with a partial reach barrier x* splits
into an upstream atom (blocked at x*) and a downstream atom.  Edges:

* regular interior: mutual reach inside; an edge to a finite boundary
  point or an infinite end exactly when that endpoint is approachable
  in finite time from inside;
* singular shunt point: one edge into the adjacent piece on its open
  side;
* shunt segment: one edge to its downstream boundary point (a segment
  never reaches an infinite end in finite time, and the upstream part
  of a partial segment has no outgoing edge at all);
* traps and cemeteries: sinks.

``reaches`` answers point-to-point queries on top of the atom graph;
``reaches(x, x)`` is True for regular points and traps, and True for a
shunt point only if some path returns to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .boundary import YES, _memo, boundary_profile
from .errors import DomainError, GraphBuildError, UndeterminedVerdict
from .model import (LEFT_SHUNT, REGULAR, RIGHT_SHUNT, SHUNT_SEGMENT,
                    SINGULAR_POINT, TRAP, TRAP_SEGMENT, DiffusionSpec, ext)

__all__ = ["Atom", "CommunicationGraph", "CommunicationClasses",
           "build_graph", "reaches", "communication_classes", "ring_interior"]

_ATOM_KIND = {REGULAR: "regular", SHUNT_SEGMENT: "shunt",
              TRAP_SEGMENT: "trap_seg", SINGULAR_POINT: "point"}


@dataclass(frozen=True)
class Atom:
    kind: str            # regular / shunt / trap_seg / point / cemetery
    lo: float
    hi: float
    piece_index: int = -1
    direction: str = ""  # shunt atoms
    point_class: str = ""
    blocked: bool = False  # upstream part of a partial-reach segment


@dataclass(frozen=True)
class CommunicationGraph:
    spec: DiffusionSpec
    atoms: tuple
    edges: frozenset  # directed (i, j) atom index pairs

    def out_neighbors(self, i):
        return [j for (s, j) in self.edges if s == i]

    def locate(self, x: float) -> int:
        """Atom index holding the point x (infinities map to cemeteries)."""
        if math.isinf(x):
            for i, a in enumerate(self.atoms):
                if a.kind == "cemetery" and (a.lo < 0) == (x < 0):
                    return i
        for i, a in enumerate(self.atoms):
            if a.kind == "cemetery":
                continue
            if a.kind == "point":
                if x == a.lo:
                    return i
                continue
            if a.lo < x < a.hi:
                return i
            # a split segment's barrier belongs to the unblocked half
            if a.kind == "shunt" and not a.blocked:
                piece = self.spec.pieces[a.piece_index]
                if piece.partial_barrier() is not None:
                    if piece.direction == "right" and x == a.lo:
                        return i
                    if piece.direction == "left" and x == a.hi:
                        return i
        raise DomainError(f"no atom holds {x}")


@_memo
def build_graph(spec: DiffusionSpec, rel_tol: float = 1e-6) -> CommunicationGraph:
    """Assemble the atom graph from the endpoint profile at rel_tol.
    Undetermined approachability anywhere stops construction with an
    error naming the endpoint."""
    try:
        profile = boundary_profile(spec, rel_tol)
    except UndeterminedVerdict as exc:
        raise GraphBuildError(str(exc)) from exc

    atoms = [Atom("cemetery", -math.inf, -math.inf)]
    index_of_piece_atoms = {}
    for i, p in enumerate(spec.pieces):
        bar = p.partial_barrier()
        if bar is None:
            atoms.append(Atom(_ATOM_KIND[p.kind], p.lo, p.hi, i,
                              p.direction or "", p.point_class or ""))
            index_of_piece_atoms[i] = [len(atoms) - 1]
        else:
            atoms.append(Atom("shunt", p.a, bar, i, p.direction,
                              blocked=p.direction == "right"))
            atoms.append(Atom("shunt", bar, p.b, i, p.direction,
                              blocked=p.direction == "left"))
            index_of_piece_atoms[i] = [len(atoms) - 2, len(atoms) - 1]
    atoms.append(Atom("cemetery", math.inf, math.inf))
    plus_inf = len(atoms) - 1
    minus_inf = 0

    def left_of(piece_index):
        if piece_index == 0:
            return minus_inf
        return index_of_piece_atoms[piece_index - 1][-1]

    def right_of(piece_index):
        if piece_index == len(spec.pieces) - 1:
            return plus_inf
        return index_of_piece_atoms[piece_index + 1][0]

    edges = set()
    for i, p in enumerate(spec.pieces):
        mine = index_of_piece_atoms[i]
        if p.kind == REGULAR:
            me = mine[0]
            edges.add((me, me))
            if profile[(i, "a")].approachable == YES:
                edges.add((me, left_of(i)))
            if profile[(i, "b")].approachable == YES:
                edges.add((me, right_of(i)))
        # a shunt's downstream atom, the one a split segment leaves unblocked,
        # feeds the next piece; the segment at an infinite end feeds nothing
        elif p.cls == RIGHT_SHUNT and right_of(i) != plus_inf:
            edges.add((mine[-1], right_of(i)))
        elif p.cls == LEFT_SHUNT and left_of(i) != minus_inf:
            edges.add((mine[0], left_of(i)))
    return CommunicationGraph(spec, tuple(atoms), frozenset(edges))


def _atom_reach_set(graph: CommunicationGraph, start: int) -> set:
    seen = {start}
    frontier = [start]
    succ = {}
    for (s, j) in graph.edges:
        succ.setdefault(s, []).append(j)
    while frontier:
        nxt = []
        for i in frontier:
            for j in succ.get(i, ()):
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return seen


def _same_atom_reach(atom: Atom, x: float, y: float) -> bool:
    if atom.kind == "regular":
        return True
    if atom.kind in ("trap_seg",):
        return x == y
    if atom.kind == "point":
        return False  # handled by the cycle rule in reaches()
    # shunt material
    if atom.direction == "right":
        return x < y
    return y < x


def reaches(graph: CommunicationGraph, x: float, y: float) -> bool:
    """Can paths from x hit y with positive probability."""
    if math.isinf(x):
        raise DomainError("reachability source must be finite")
    xi = graph.locate(x)
    yi = graph.locate(y)
    ax = graph.atoms[xi]
    if xi == yi and x == y:
        if ax.kind == "regular" or ax.kind == "trap_seg":
            return True
        if ax.kind == "point" and ax.point_class == TRAP:
            return True
        # shunt material leaves immediately; back only through a cycle
        back = set()
        for j in graph.out_neighbors(xi):
            back |= _atom_reach_set(graph, j)
        return xi in back
    if xi == yi:
        return _same_atom_reach(ax, x, y)
    reach = set()
    for j in graph.out_neighbors(xi):
        reach |= _atom_reach_set(graph, j)
    return yi in reach


@dataclass(frozen=True)
class CommunicationClasses:
    interval_classes: tuple   # (lo, hi, lo_closed, hi_closed)
    trap_singletons: tuple    # isolated trap points
    singleton_ranges: tuple   # (lo, hi) intervals of pairwise-isolated traps
    ring: tuple               # open interiors of the interval classes

    def ring_contains(self, x: float) -> bool:
        return any(lo < x < hi for lo, hi in self.ring)

    def as_dict(self) -> dict:
        return {
            "interval_classes": [
                {"lo": ext(lo), "hi": ext(hi), "lo_closed": lc, "hi_closed": hc}
                for lo, hi, lc, hc in self.interval_classes],
            "trap_singletons": [ext(x) for x in self.trap_singletons],
            "singleton_ranges": [[ext(a), ext(b)] for a, b in self.singleton_ranges],
        }


def communication_classes(graph: CommunicationGraph) -> CommunicationClasses:
    """Partition into communication classes.

    Weak connectivity over the atom graph; trap segments contribute a
    continuum of singleton classes, reported as ranges.
    """
    atoms = graph.atoms
    working = [i for i, a in enumerate(atoms)
               if a.kind not in ("cemetery", "trap_seg")]
    parent = {i: i for i in working}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for (s, j) in graph.edges:
        if s in parent and j in parent and s != j:
            union(s, j)

    groups = {}
    for i in working:
        groups.setdefault(find(i), []).append(i)

    interval_classes = []
    trap_singletons = []
    for members in groups.values():
        lo = min(atoms[i].lo for i in members)
        hi = max(atoms[i].hi for i in members)
        if lo == hi:
            trap_singletons.append(lo)
            continue
        lo_closed = any(atoms[i].kind == "point" and atoms[i].lo == lo for i in members)
        hi_closed = any(atoms[i].kind == "point" and atoms[i].hi == hi for i in members)
        interval_classes.append((lo, hi, lo_closed, hi_closed))
    interval_classes.sort()
    singleton_ranges = tuple(sorted(
        (a.lo, a.hi) for a in atoms if a.kind == "trap_seg"))
    ring = tuple((lo, hi) for lo, hi, _, _ in interval_classes)
    return CommunicationClasses(tuple(interval_classes), tuple(sorted(trap_singletons)),
                                singleton_ranges, ring)


def ring_interior(spec: DiffusionSpec) -> tuple:
    """Open intervals forming the union of interval-class interiors."""
    return communication_classes(build_graph(spec)).ring
