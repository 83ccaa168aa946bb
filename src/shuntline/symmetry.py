"""Symmetrizing measures for the generalized diffusion.

Verdict ladder:

* the process killed at its traps admits a symmetrizing measure exactly
  when the fine-regularity property holds and no shunt point can be
  approached from both of its sides (``lambda_ap`` empty);
* the unkilled process is symmetrizable when additionally no trap point
  is reached from elsewhere (``lambda_at`` empty).

When the killed verdict is positive, the state space splits into
components: each regular interval together with the shunt endpoints
pointing into it.  An endpoint joins the component outright when the
interval actually approaches it (reflecting behaviour); otherwise it is
kept only in the topological closure.  The canonical measure puts each
interval's own speed measure on its component and plain Lebesgue
measure on the leftover trap material; scaling each component by any
positive constant gives the full family of symmetrizing measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .boundary import (ENTRANCE_UNREACHABLE, EXIT, INCLUDED_SHUNT, _memo,
                       boundary_profile)
from .classify import lambda_sets
from .errors import (DomainError, EvalError, InvalidSpecError,
                     NotSymmetrizableError, QuadratureError)
from .expr import evaluate, parse_expr
from .graph import build_graph
from .hunt import check_hunt, lambda_ap
from .model import TRAP, TRAP_SEGMENT, DiffusionSpec, ext
from .quadrature import FINITE, INFINITE, UNDETERMINED, span_integrals
from .sets import RealSet

__all__ = ["lambda_ap", "lambda_at", "Component", "MeasureEntry", "Measure",
           "SymmetryReport", "check_symmetrizable", "canonical_measure",
           "measure_family"]

# the roles of an endpoint whose adjacent point is a shunt into the piece
_SHUNT_INTO = (INCLUDED_SHUNT, ENTRANCE_UNREACHABLE)


def lambda_at(spec: DiffusionSpec, rel_tol: float = 1e-6) -> tuple:
    """Trap points that some other point reaches."""
    graph = build_graph(spec, rel_tol)
    targets = {t for (_, t) in graph.edges}
    return tuple(sorted(a.lo for i, a in enumerate(graph.atoms)
                        if a.kind == "point" and a.point_class == TRAP
                        and i in targets))


# ---------------------------------------------------------------------------
# components and measures


@dataclass(frozen=True)
class Component:
    index: int
    piece_index: int
    lo: float
    hi: float
    lo_closed: bool        # endpoint genuinely belongs (reflecting shunt)
    hi_closed: bool
    tilde_lo_closed: bool  # closure version, approachable or not
    tilde_hi_closed: bool
    exit_sides: tuple      # sides where paths leave for good

    def as_dict(self) -> dict:
        return {"index": self.index, "piece_index": self.piece_index,
                "lo": ext(self.lo), "hi": ext(self.hi),
                "lo_closed": self.lo_closed, "hi_closed": self.hi_closed,
                "closure_lo_closed": self.tilde_lo_closed,
                "closure_hi_closed": self.tilde_hi_closed,
                "exit_sides": list(self.exit_sides)}


@dataclass(frozen=True)
class MeasureEntry:
    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool
    density_src: str
    density: object
    atoms: tuple
    weight: float
    component: int      # -1 for trap material
    piece_index: int
    hint_lo: str
    hint_hi: str

    def as_dict(self) -> dict:
        return {"lo": ext(self.lo), "hi": ext(self.hi),
                "lo_closed": self.lo_closed, "hi_closed": self.hi_closed,
                "density": self.density_src,
                "atoms": [[p, w] for p, w in self.atoms],
                "weight": self.weight, "component": self.component,
                "piece_index": self.piece_index,
                "hints": {"lo": self.hint_lo, "hi": self.hint_hi}}

    def contains(self, x: float) -> bool:
        if self.lo < x < self.hi:
            return True
        return (x == self.lo and self.lo_closed) or (x == self.hi and self.hi_closed)


@dataclass(frozen=True)
class Measure:
    entries: tuple
    description: str = ""

    def as_dict(self) -> dict:
        return {"description": self.description,
                "entries": [e.as_dict() for e in self.entries]}

    def interval_mass(self, a: float, b: float):
        """(verdict, value) for the mass of [a, b], integrated to 1e-8.

        Declared endpoint-mass hints short-circuit: touching an endpoint
        whose nearby mass is declared infinite makes the answer
        infinite without any quadrature.  Each entry's part of [a, b] is
        one span of ``span_integrals``, improper only at the entry's own
        endpoints: a cut strictly inside an entry is one adaptive cell.
        A cell that misses its tolerance makes the mass undetermined.
        """
        return self.interval_masses([(a, b)])[0]

    def interval_masses(self, windows) -> list:
        """interval_mass(a, b) for each window (a, b), in order.  Entry by
        entry, the spans of the windows not yet decided are one
        ``span_integrals`` batch, so windows that share an integrand
        share its calls; the values are those of one window at a time."""
        if any(b < a for a, b in windows):
            raise DomainError("interval_mass needs a <= b")
        totals = [0.0] * len(windows)
        out = [None] * len(windows)
        for e in self.entries:
            spans = {}
            for j, (a, b) in enumerate(windows):
                lo, hi = max(a, e.lo), min(b, e.hi)
                if out[j] is not None or hi < lo:
                    continue
                for pos, w in e.atoms:
                    if a <= pos <= b and e.contains(pos):
                        totals[j] += e.weight * w
                if hi <= lo:
                    continue
                if (lo == e.lo and math.isfinite(e.lo) and e.hint_lo == "infinite") \
                        or (hi == e.hi and math.isfinite(e.hi)
                            and e.hint_hi == "infinite"):
                    out[j] = INFINITE, math.inf
                    continue
                spans[j] = lo, hi, lo == e.lo, hi == e.hi
            if not spans:
                continue
            results = span_integrals(
                lambda y: e.weight * evaluate(e.density, y), list(spans.values()))
            for j, res in zip(spans, results):
                if isinstance(res, (QuadratureError, EvalError)):
                    out[j] = UNDETERMINED, math.nan
                elif isinstance(res, Exception):
                    raise res
                elif res.verdict == INFINITE:
                    out[j] = INFINITE, math.inf
                elif res.verdict == UNDETERMINED:
                    out[j] = UNDETERMINED, math.nan
                else:
                    totals[j] += abs(res.value)
        return [(FINITE, total) if done is None else done
                for done, total in zip(out, totals)]


@dataclass(frozen=True)
class SymmetryReport:
    hunt_holds: bool
    killed: bool
    full: bool
    lambda_ap: tuple
    lambda_at: tuple
    components: tuple
    reason: str
    measure: object = None

    def as_dict(self) -> dict:
        return {"hunt_holds": self.hunt_holds,
                "killed_symmetrizable": self.killed,
                "full_symmetrizable": self.full,
                "lambda_ap": [ext(x) for x in self.lambda_ap],
                "lambda_at": [ext(x) for x in self.lambda_at],
                "components": [c.as_dict() for c in self.components],
                "reason": self.reason}


def _components(spec: DiffusionSpec, profile) -> tuple:
    out = []
    for n, i in enumerate(spec.regular_indices()):
        p = spec.pieces[i]
        roles = {side: profile[(i, side)].role for side in ("a", "b")}
        out.append(Component(
            n, i, p.a, p.b,
            roles["a"] == INCLUDED_SHUNT, roles["b"] == INCLUDED_SHUNT,
            roles["a"] in _SHUNT_INTO, roles["b"] in _SHUNT_INTO,
            tuple(side for side, role in roles.items() if role == EXIT)))
    return tuple(out)


def _check_component_union(spec: DiffusionSpec, components: tuple) -> None:
    """Refuse a spec whose component closures do not tile the non-trap
    set.  A spec that breaks ``validate``'s closedness rule gets here,
    since the library, unlike the CLI, does not validate first."""
    closure = RealSet.from_intervals(
        (c.lo, c.hi, c.tilde_lo_closed, c.tilde_hi_closed) for c in components)
    expected = lambda_sets(spec).lambda_t.complement()
    if closure != expected:
        raise InvalidSpecError(
            f"spec breaks the closedness rule (see validate): component "
            f"closures {closure!r} do not tile the complement of the trap "
            f"set {expected!r}")


def _measure_from(spec: DiffusionSpec, components: tuple, coeffs) -> Measure:
    entries = []
    for c in components:
        piece = spec.pieces[c.piece_index]
        w = 1.0 if coeffs is None else float(coeffs[c.index])
        if not (w > 0):
            raise DomainError(f"component {c.index}: weight must be positive")
        entries.append(MeasureEntry(
            c.lo, c.hi, c.lo_closed, c.hi_closed,
            piece.speed.density_src, piece.speed.density, piece.speed.atoms,
            w, c.index, c.piece_index,
            piece.speed.hint("a"), piece.speed.hint("b")))
    lebesgue = parse_expr("1")
    for i, p in enumerate(spec.pieces):
        if p.kind == TRAP_SEGMENT:
            entries.append(MeasureEntry(
                p.a, p.b, False, False, "1", lebesgue, (), 1.0, -1, i,
                "finite" if math.isfinite(p.a) else "infinite",
                "finite" if math.isfinite(p.b) else "infinite"))
    entries.sort(key=lambda e: e.lo)
    label = "canonical" if coeffs is None else "scaled family member"
    return Measure(tuple(entries), f"{label} symmetrizing measure for {spec.name}")


@_memo
def check_symmetrizable(spec: DiffusionSpec, rel_tol: float = 1e-6) -> SymmetryReport:
    """Full verdict ladder plus components and canonical measure, decided
    once per (spec, rel_tol) on the one boundary profile at rel_tol."""
    hunt = check_hunt(spec, rel_tol)
    lam_ap = lambda_ap(spec, rel_tol=rel_tol)
    lam_at = lambda_at(spec, rel_tol)
    killed = hunt.holds and not lam_ap
    full = killed and not lam_at
    if not hunt.holds:
        reason = ("no symmetrizing measure: some one-way point is hit "
                  "without being revisited")
    elif lam_ap:
        reason = ("no symmetrizing measure: shunt points approachable "
                  f"from both sides at {sorted(lam_ap)}")
    elif lam_at:
        reason = ("symmetrizable after killing at traps; traps reached "
                  f"from outside at {sorted(lam_at)} block the unkilled form")
    else:
        reason = "symmetrizable without killing"
    components = ()
    measure = None
    if killed:
        components = _components(spec, boundary_profile(spec, rel_tol))
        _check_component_union(spec, components)
        measure = _measure_from(spec, components, None)
    return SymmetryReport(hunt.holds, killed, full, lam_ap, lam_at,
                          components, reason, measure)


def canonical_measure(spec: DiffusionSpec, rel_tol: float = 1e-6) -> Measure:
    return measure_family(spec, None, rel_tol)


def measure_family(spec: DiffusionSpec, coefficients, rel_tol: float = 1e-6) -> Measure:
    """Member of the symmetrizing family with positive per-component scales.

    coefficients: mapping component index -> scale, or a sequence in
    component order; None gives the canonical measure.
    """
    report = check_symmetrizable(spec, rel_tol)
    if not report.killed:
        raise NotSymmetrizableError(report.reason)
    if coefficients is None:
        return report.measure
    if not isinstance(coefficients, dict):
        seq = list(coefficients)
        if len(seq) != len(report.components):
            raise DomainError(
                f"need {len(report.components)} coefficients, got {len(seq)}")
        coefficients = {c.index: seq[k] for k, c in enumerate(report.components)}
    return _measure_from(spec, report.components, coefficients)
