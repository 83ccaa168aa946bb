"""Fine-regularity verdict for one-way points.

The process is well behaved (excessive functions are finely continuous
along paths) exactly when every shunt point lying strictly inside a
communication class is a reflecting, included endpoint of a regular
interval: paths pushed through it re-enter the flanking interval and
come straight back.  Two ways this can fail:

* ``r1``: shunt material glued to more shunt or trap material, so a
  whole stretch of one-way points sits inside the class;
* ``r2``: an isolated shunt point whose flanking regular interval never
  returns to it in finite time.

``lambda_ap`` lists the shunt points approachable from both sides.

``singleton_status`` grades individual points: ``polar`` singletons are
never hit from anywhere else, ``thin_not_polar`` ones are hit but left
instantly and for good, and everything else is ``not_thin``.  Failure
witnesses coincide with the thin-but-not-polar shunt points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boundary import YES, _memo, boundary_profile
from .graph import build_graph, communication_classes, reaches
from .model import (LEFT_SHUNT, REGULAR, RIGHT_SHUNT, SHUNT_SEGMENT, TRAP,
                    DiffusionSpec, ext)

__all__ = ["Witness", "HuntReport", "check_hunt", "singleton_status",
           "lambda_ap", "POLAR", "THIN_NOT_POLAR", "NOT_THIN"]

POLAR = "polar"
THIN_NOT_POLAR = "thin_not_polar"
NOT_THIN = "not_thin"


@dataclass(frozen=True)
class Witness:
    kind: str    # r1 or r2
    lo: float
    hi: float    # lo == hi for a point witness
    note: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "lo": ext(self.lo), "hi": ext(self.hi),
                "note": self.note}


@dataclass(frozen=True)
class HuntReport:
    holds: bool
    witnesses: tuple
    h_xi: str     # equivalent_to_h / not_decided
    classes: object = None

    def as_dict(self) -> dict:
        return {"holds": self.holds,
                "witnesses": [w.as_dict() for w in self.witnesses],
                "h_xi": self.h_xi}


def _open_side_neighbor(spec: DiffusionSpec, index: int):
    """(neighbor index, neighbor piece, side of the neighbor facing back)."""
    p = spec.pieces[index]
    if p.point_class == RIGHT_SHUNT:
        j = index + 1
        return j, spec.pieces[j], "a"
    j = index - 1
    return j, spec.pieces[j], "b"


def _flanked_shunts(spec: DiffusionSpec):
    """(index, x) of shunt points with a regular interval on both sides."""
    return [(i, p.x) for i, p in enumerate(spec.pieces)
            if p.is_point and p.point_class in (LEFT_SHUNT, RIGHT_SHUNT)
            and spec.pieces[i - 1].kind == spec.pieces[i + 1].kind == REGULAR]


def lambda_ap(spec: DiffusionSpec, literal: bool = False,
              rel_tol: float = 1e-6) -> tuple:
    """Shunt points flanked by regular intervals on both sides and
    approachable from both.

    The default reading asks both flanking intervals to approach the
    point; ``literal=True`` instead runs reachability queries from
    interior probe points on each side.  On a line the two agree: any
    path into the point funnels through a flanking interval.
    """
    if not literal:
        profile = boundary_profile(spec, rel_tol)
        return tuple(x for i, x in _flanked_shunts(spec)
                     if profile[(i - 1, "b")].approachable == YES
                     and profile[(i + 1, "a")].approachable == YES)
    graph = build_graph(spec, rel_tol)
    return tuple(x for i, x in _flanked_shunts(spec)
                 if all(reaches(graph, spec.pieces[j].interior_point(), x)
                        for j in (i - 1, i + 1)))


@_memo
def check_hunt(spec: DiffusionSpec, rel_tol: float = 1e-6) -> HuntReport:
    """Decide fine regularity and its witnesses once per (spec, rel_tol)."""
    classes = communication_classes(build_graph(spec, rel_tol))
    profile = boundary_profile(spec, rel_tol)
    witnesses = []
    for i, p in enumerate(spec.pieces):
        if p.kind == SHUNT_SEGMENT:
            witnesses.append(Witness(
                "r1", p.a, p.b,
                "segment of one-way points inside its communication class"))
            continue
        if p.cls not in (LEFT_SHUNT, RIGHT_SHUNT) or not classes.ring_contains(p.x):
            continue
        j, nb, back_side = _open_side_neighbor(spec, i)
        if nb.kind == REGULAR:
            if profile[(j, back_side)].approachable == YES:
                continue  # reflecting included endpoint, harmless
            witnesses.append(Witness(
                "r2", p.x, p.x,
                f"shunt point at {p.x}: flanking regular interval never "
                f"returns to it"))
        else:
            witnesses.append(Witness(
                "r1", p.x, p.x,
                f"shunt point at {p.x} feeds straight into segment material"))
    witnesses.sort(key=lambda w: (w.lo, w.hi))
    h_xi = ("equivalent_to_h" if not lambda_ap(spec, rel_tol=rel_tol)
            else "not_decided")
    return HuntReport(not witnesses, tuple(witnesses), h_xi, classes)


def singleton_status(spec: DiffusionSpec, x: float, rel_tol: float = 1e-6) -> str:
    """Grade the singleton {x}: polar, thin_not_polar or not_thin.

    Only shunt points can be thin.  A shunt point is thin when its open
    side offers no way back: either segment material, or a regular
    interval that cannot approach the point.  A thin point is polar
    exactly when nothing else reaches it.
    """
    i, p = spec.piece_at(x)
    if not p.is_point or p.point_class == TRAP:
        return NOT_THIN
    j, nb, back_side = _open_side_neighbor(spec, i)
    if nb.kind == REGULAR:
        if boundary_profile(spec, rel_tol)[(j, back_side)].approachable == YES:
            return NOT_THIN
    graph = build_graph(spec, rel_tol)
    me = graph.locate(x)
    hit_from_elsewhere = any(t == me for (_, t) in graph.edges)
    return THIN_NOT_POLAR if hit_from_elsewhere else POLAR
