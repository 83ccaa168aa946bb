"""Endpoint analysis of regular pieces.

For each endpoint of a regular interval this module decides

* the scale limit (finite value or declared +-inf),
* whether the endpoint is approachable from inside in finite time,
* the endpoint's dynamic role.

Approachability uses the integral of the speed mass between a moving
point and a fixed interior anchor, integrated against the scale.  By
Fubini this equals the single integral of (s(y) - s(endpoint-limit))
against the speed measure, which is what gets evaluated, shell by
shell, toward the endpoint.  An infinite scale limit forces "no"
outright: the integrand has an everywhere-infinite minorant as soon as
any interior mass is present.  A "finite" endpoint mass hint together
with a finite scale limit forces "yes" (the integrand is bounded by the
scale gap times the hinted-finite mass).

The verdict must not depend on the anchor; it is audited at two anchors,
whose shells share one integrand call per block, and degrades to
undetermined if they disagree.  A numerically
undetermined verdict falls back on an "infinite" endpoint mass hint and
resolves to "no"; borderline shell sums track the mass integral, so the
declaration settles them.  (When the boundary integral genuinely
converges against infinite end mass the probe succeeds on its own and
the hint is never consulted.)

Roles at an endpoint (left endpoint wording; right is the mirror):

* adjacent point is a right shunt (points into the piece):
  approachable -> ``included_shunt``, else -> ``entrance_unreachable``;
* adjacent point is a left shunt (exits into the neighbor):
  approachable -> ``glue_to_neighbor``, else -> ``natural``;
* adjacent point is a trap, or the endpoint is infinite:
  approachable -> ``exit``, else -> ``natural``.

A finite exit endpoint therefore always sits next to a trap; that
consistency is asserted and raised as a hard error if numerics ever
disagree with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from types import MappingProxyType

import numpy as np

from .errors import EvalError, UndeterminedVerdict
from .expr import evaluate
from .model import REGULAR, RIGHT_SHUNT, TRAP, DiffusionSpec, Piece, ext
from .quadrature import FINITE, INFINITE, improper_integrals

__all__ = [
    "YES", "NO", "UNDET", "EXIT", "INCLUDED_SHUNT", "ENTRANCE_UNREACHABLE",
    "NATURAL", "GLUE_TO_NEIGHBOR", "EndpointAnalysis", "scale_limit",
    "approachable", "endpoint_role", "boundary_profile",
]

YES = "yes"
NO = "no"
UNDET = "undetermined"

EXIT = "exit"
INCLUDED_SHUNT = "included_shunt"
ENTRANCE_UNREACHABLE = "entrance_unreachable"
NATURAL = "natural"
GLUE_TO_NEIGHBOR = "glue_to_neighbor"

_LIMIT_CAP = 1e12
_FIRST_CHUNK = 16  # probes in scale_limit's first array call
# probe k = 1 ... 419 sits at fraction 1 - 2^-k of the way to a finite
# endpoint, or 2^k - 1 beyond the anchor toward an infinite one
_TO_FINITE = np.array([1.0 - 2.0 ** (-k) for k in range(1, 420)])
_TO_INFINITE = np.array([2.0 ** k - 1.0 for k in range(1, 420)])


def _probe_values(scale, xs):
    """evaluate(scale, x) for each x of xs, as floats, one array call per
    chunk of 16, 32, 64, ... probes.  A chunk that raises is redone one
    probe at a time, so an error names the first probe that raises it."""
    start, size = 0, _FIRST_CHUNK
    while start < len(xs):
        chunk = xs[start:start + size]
        try:
            values = evaluate(scale, chunk).tolist()
        except EvalError:
            values = (evaluate(scale, x) for x in chunk.tolist())
        yield from values
        start, size = start + size, 2 * size


def scale_limit(piece: Piece, side: str) -> float:
    """Limit of the scale at endpoint 'a' or 'b' of a regular piece.

    Probes a geometric sequence toward the endpoint.  Declared +-inf
    when a value is infinite, when values pass 1e12 while still strictly
    monotone, or when the increments of the (monotone) sequence stop
    shrinking, which covers logarithmic growth that never reaches the
    cap.  The probes are evaluated as arrays, in chunks of doubling size;
    the rules read the values one by one, and a chunk whose evaluation
    raises is redone one probe at a time, so the limit returned and the
    error raised are those of one scalar evaluation per probe.
    """
    if piece.kind != REGULAR:
        raise EvalError("scale limits are defined for regular pieces")
    e = piece.endpoint(side)
    a, b = piece.a, piece.b
    if math.isfinite(e):
        width = min(1.0, (b - a) / 2 if math.isfinite(b - a) else 1.0)
        anchor = e + width if side == "a" else e - width
        xs = anchor + (e - anchor) * _TO_FINITE
    else:
        anchor = a + 1.0 if side == "b" and math.isfinite(a) else \
            b - 1.0 if side == "a" and math.isfinite(b) else 0.0
        sign = 1.0 if side == "b" else -1.0
        xs = anchor + sign * _TO_INFINITE
    sign_to_end = 1.0 if side == "b" else -1.0
    prev = prev_step = None
    stall = 0
    for v in _probe_values(piece.scale, xs):
        if math.isinf(v):
            return math.copysign(math.inf, sign_to_end)
        if prev is None:
            prev = v
            continue
        step = v - prev
        if step * sign_to_end < 0:
            raise EvalError(f"scale oscillates toward endpoint {side} = {e}")
        if abs(v) > _LIMIT_CAP:
            return math.copysign(math.inf, sign_to_end)
        if abs(step) <= 1e-9 * max(1.0, abs(v)):
            return v
        if prev_step is not None and abs(step) >= 0.999 * abs(prev_step):
            stall += 1
            if stall >= 12:
                return math.copysign(math.inf, sign_to_end)
        else:
            stall = 0
        prev, prev_step = v, step
    raise EvalError(f"scale limit did not settle at endpoint {side} = {e}")


def _default_anchors(piece: Piece):
    a, b = piece.a, piece.b
    if math.isfinite(a) and math.isfinite(b):
        return a + (b - a) / 2, a + (b - a) / 4
    if math.isfinite(a):
        return a + 1.0, a + 2.0
    if math.isfinite(b):
        return b - 1.0, b - 2.0
    return 0.0, 1.0


def approachable(piece: Piece, side: str, rel_tol: float = 1e-6):
    """Tri-state approachability of an endpoint from inside the piece.

    Returns (verdict, value) where value is the boundary integral when
    finite.  The verdict is audited at a second anchor.
    """
    return _approach(piece, side, scale_limit(piece, side), rel_tol)


def _approach(piece, side, s_lim, rel_tol):
    """``approachable`` for an endpoint whose scale limit is s_lim."""
    if math.isinf(s_lim):
        return NO, math.inf
    anchors = _default_anchors(piece)
    if piece.speed.hint(side) == "finite":
        return YES, _boundary_integrals(piece, side, s_lim, anchors[:1],
                                        rel_tol)[0].value
    r1, r2 = _boundary_integrals(piece, side, s_lim, anchors, rel_tol)
    v1 = YES if r1.verdict == FINITE else NO if r1.verdict == INFINITE else UNDET
    v2 = YES if r2.verdict == FINITE else NO if r2.verdict == INFINITE else UNDET
    verdict = v1 if v1 == v2 else UNDET
    if verdict == UNDET and piece.speed.hint(side) == "infinite":
        return NO, math.inf
    if verdict == UNDET:
        return UNDET, r1.value
    return verdict, r1.value if verdict == YES else math.inf


def _boundary_integrals(piece, side, s_lim, anchors, rel_tol):
    """Shell integral of (s(y) - s_lim) (signed toward the endpoint)
    against the speed measure between each anchor and the endpoint, the
    anchors' shells sharing the integrand calls."""
    dens = piece.speed.density
    scale = piece.scale
    e = piece.endpoint(side)
    sign = 1.0 if side == "a" else -1.0

    def f(y):
        return sign * (evaluate(scale, y) - s_lim) * evaluate(dens, y)

    out = []
    for anchor, res in zip(anchors, improper_integrals(f, anchors, e, rel_tol)):
        if res.verdict == FINITE:
            lo, hi = (e, anchor) if side == "a" else (anchor, e)
            atom_part = sum(w * sign * (evaluate(scale, at) - s_lim)
                            for at, w in piece.speed.atoms if lo < at < hi)
            res = type(res)(res.verdict, res.value + atom_part, res.shells,
                            res.note)
        out.append(res)
    return out


@dataclass(frozen=True)
class EndpointAnalysis:
    piece_index: int
    side: str                 # 'a' or 'b'
    endpoint: float
    scale_limit: float
    approachable: str         # yes / no / undetermined
    role: str
    boundary_integral: float
    adjacent_class: str = ""  # class of the adjacent singular point, if any

    def as_dict(self) -> dict:
        return {
            "piece_index": self.piece_index,
            "side": self.side,
            "endpoint": ext(self.endpoint),
            "scale_limit": ext(self.scale_limit),
            "approachable": self.approachable,
            "role": self.role,
            "boundary_integral": self.boundary_integral
            if math.isfinite(self.boundary_integral) else "inf",
            "adjacent_class": self.adjacent_class,
        }


def _role(spec, index, side, app):
    piece = spec.pieces[index]
    e = piece.endpoint(side)
    if math.isinf(e):
        return EXIT if app == YES else NATURAL, ""
    cls = spec.neighbor(index, side).point_class
    if cls == TRAP:
        return (EXIT if app == YES else NATURAL), cls
    if (cls == RIGHT_SHUNT) == (side == "a"):  # a shunt pointing into the piece
        return (INCLUDED_SHUNT if app == YES else ENTRANCE_UNREACHABLE), cls
    return (GLUE_TO_NEIGHBOR if app == YES else NATURAL), cls


def endpoint_role(spec: DiffusionSpec, piece_index: int, side: str,
                  rel_tol: float = 1e-6) -> EndpointAnalysis:
    """Full endpoint analysis for one endpoint of a regular piece.

    Raises UndeterminedVerdict if approachability cannot be decided;
    the message names the endpoint and suggests an endpoint mass hint.
    """
    piece = spec.pieces[piece_index]
    if piece.kind != REGULAR:
        raise EvalError("endpoint roles are defined for regular pieces")
    s_lim = scale_limit(piece, side)
    app, value = _approach(piece, side, s_lim, rel_tol)
    if app == UNDET:
        e = piece.endpoint(side)
        raise UndeterminedVerdict(
            f"approachability undetermined at endpoint {side} = {e} of piece "
            f"{piece_index}; declare speed.hints.{side} (finite or infinite) "
            f"to settle it")
    role, cls = _role(spec, piece_index, side, app)
    if role == EXIT and math.isfinite(piece.endpoint(side)) and cls != TRAP:
        raise UndeterminedVerdict(
            f"inconsistent analysis: finite exit endpoint {piece.endpoint(side)} "
            f"of piece {piece_index} is not adjacent to a trap")
    return EndpointAnalysis(piece_index, side, piece.endpoint(side), s_lim,
                            app, role, value, cls)


@lru_cache(maxsize=128)
def _context(spec: DiffusionSpec, rel_tol: float) -> dict:
    """The memoised stages' results for (spec, rel_tol), by stage."""
    return {}


def _memo(stage):
    """stage(spec, rel_tol), derived once per (spec, float(rel_tol)) in the
    one context shared by the profile, the graph and the two verdicts; a
    defaulted and an explicit rel_tol of one value share it, and the 128
    most recent contexts are kept.  A refusal (UndeterminedVerdict) is kept
    without its traceback and raised again with the same message."""

    @wraps(stage)
    def memoised(spec, rel_tol=1e-6):
        done = _context(spec, float(rel_tol))
        if stage not in done:
            try:
                done[stage] = stage(spec, float(rel_tol))
            except UndeterminedVerdict as exc:
                done[stage] = exc.with_traceback(None)
        out = done[stage]
        if isinstance(out, UndeterminedVerdict):
            raise type(out)(*out.args)
        return out

    return memoised


@_memo
def boundary_profile(spec: DiffusionSpec, rel_tol: float = 1e-6):
    """EndpointAnalysis for both ends of every regular piece, keyed
    (piece_index, side), as a read-only mapping.  Derived once per
    (spec, rel_tol), a refusal too."""
    return MappingProxyType({
        (i, side): endpoint_role(spec, i, side, rel_tol=rel_tol)
        for i in spec.regular_indices() for side in ("a", "b")})
