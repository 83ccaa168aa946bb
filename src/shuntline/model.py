"""Spec documents for generalized one-dimensional diffusions.

A spec is an ordered list of pieces whose closures cover the real line:

* ``regular_interval``: open interval with a strictly increasing scale
  expression and a speed measure (density, point atoms, endpoint mass
  hints);
* ``shunt_segment``: open interval of one-directional points
  (``direction`` is ``left`` or ``right``); optional ``reach`` field
  ``full`` (default) or ``partial:<x*>`` bounding how far points push;
* ``trap_segment``: open interval of traps;
* ``singular_point``: an explicit point with ``class`` in
  ``trap`` / ``left_shunt`` / ``right_shunt``.  Every finite boundary
  between two non-point pieces must carry exactly one of these.

Documents are JSON with fixed field names; infinite endpoints are the
strings ``"-inf"`` / ``"+inf"``.  ``parse_spec`` rejects structural
damage (overlap, gaps, unknown vocabulary); ``validate`` audits the
semantic invariants (scale monotonicity, density sign, atom placement,
label closedness at boundaries) and returns a report.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, SpecParseError, UndeterminedVerdict
from .expr import Expr, evaluate, parse_expr
from .quadrature import INFINITE, UNDETERMINED, interior_point, span_integral

__all__ = [
    "MeasureSpec", "Piece", "DiffusionSpec", "Violation", "ValidationReport",
    "parse_spec", "load_spec", "serialize_spec", "validate",
    "eval_scale", "eval_speed_mass", "spec_digest",
    "REGULAR", "SHUNT_SEGMENT", "TRAP_SEGMENT", "SINGULAR_POINT",
    "TRAP", "LEFT_SHUNT", "RIGHT_SHUNT",
]

REGULAR = "regular_interval"
SHUNT_SEGMENT = "shunt_segment"
TRAP_SEGMENT = "trap_segment"
SINGULAR_POINT = "singular_point"
_KINDS = (REGULAR, SHUNT_SEGMENT, TRAP_SEGMENT, SINGULAR_POINT)

TRAP = "trap"
LEFT_SHUNT = "left_shunt"
RIGHT_SHUNT = "right_shunt"
_CLASSES = (TRAP, LEFT_SHUNT, RIGHT_SHUNT)
# the right- and left-singular sets are closed: a point at an end of their
# material belongs to them
_RIGHT_SINGULAR = (RIGHT_SHUNT, TRAP)
_LEFT_SINGULAR = (LEFT_SHUNT, TRAP)

_HINTS = ("finite", "infinite", "unknown")

_GRID_POINTS = 1001  # samples per piece in the validation audits
# the unit grid _interior_grid maps onto each piece
_GRID_T = np.linspace(1e-6, 1.0 - 1e-6, _GRID_POINTS)
_GRID_T.flags.writeable = False
# first and last grid index of each of the support audit's eight chunks,
# cut as np.array_split cuts them
_CHUNK_STARTS = np.array([c[0] for c in np.array_split(np.arange(_GRID_POINTS), 8)])
_CHUNK_LASTS = np.append(_CHUNK_STARTS[1:], _GRID_POINTS) - 1


@dataclass(frozen=True)
class MeasureSpec:
    """Speed measure data on one regular interval."""

    density_src: str
    density: Expr = field(compare=False)
    atoms: tuple = ()  # ((at, weight), ...)
    hint_a: str = "unknown"
    hint_b: str = "unknown"

    @staticmethod
    def from_dict(d: dict, where: str) -> "MeasureSpec":
        if not isinstance(d, dict):
            raise SpecParseError(f"{where}: speed must be an object")
        unknown = set(d) - {"density", "atoms", "hints"}
        if unknown:
            raise SpecParseError(f"{where}: unknown speed field(s) {sorted(unknown)}")
        src = d.get("density")
        if not isinstance(src, str):
            raise SpecParseError(f"{where}: speed.density must be an expression string")
        try:
            density = parse_expr(src)
        except Exception as exc:
            raise SpecParseError(f"{where}: bad density expression: {exc}") from exc
        atoms = []
        for i, atom in enumerate(d.get("atoms", ())):
            if not isinstance(atom, dict) or set(atom) != {"at", "weight"}:
                raise SpecParseError(f"{where}: atom {i} must be {{at, weight}}")
            atoms.append((float(atom["at"]), float(atom["weight"])))
        hints = d.get("hints", {})
        if not isinstance(hints, dict) or set(hints) - {"a", "b"}:
            raise SpecParseError(f"{where}: hints must be an object with keys a/b")
        hint_a = hints.get("a", "unknown")
        hint_b = hints.get("b", "unknown")
        for h in (hint_a, hint_b):
            if h not in _HINTS:
                raise SpecParseError(f"{where}: hint {h!r} not in {_HINTS}")
        return MeasureSpec(src, density, tuple(atoms), hint_a, hint_b)

    def to_dict(self) -> dict:
        out = {"density": self.density_src}
        if self.atoms:
            out["atoms"] = [{"at": at, "weight": w} for at, w in self.atoms]
        if (self.hint_a, self.hint_b) != ("unknown", "unknown"):
            out["hints"] = {}
            if self.hint_a != "unknown":
                out["hints"]["a"] = self.hint_a
            if self.hint_b != "unknown":
                out["hints"]["b"] = self.hint_b
        return out

    def hint(self, side: str) -> str:
        return self.hint_a if side == "a" else self.hint_b


@dataclass(frozen=True)
class Piece:
    kind: str
    a: Optional[float] = None
    b: Optional[float] = None
    x: Optional[float] = None
    point_class: Optional[str] = None
    direction: Optional[str] = None
    scale_src: Optional[str] = None
    scale: Optional[Expr] = field(default=None, compare=False)
    speed: Optional[MeasureSpec] = None
    reach: str = "full"

    # -- factories ---------------------------------------------------------

    @staticmethod
    def shunt(a, b, direction, reach="full") -> "Piece":
        return Piece(SHUNT_SEGMENT, a=float(a), b=float(b),
                     direction=direction, reach=reach)

    @staticmethod
    def trap_region(a, b) -> "Piece":
        return Piece(TRAP_SEGMENT, a=float(a), b=float(b))

    @staticmethod
    def point(x, point_class) -> "Piece":
        return Piece(SINGULAR_POINT, x=float(x), point_class=point_class)

    # -- helpers -----------------------------------------------------------

    @property
    def is_point(self) -> bool:
        return self.kind == SINGULAR_POINT

    @property
    def cls(self) -> str:
        """Class of every point of the piece: regular, trap, left_shunt or
        right_shunt."""
        if self.kind == REGULAR:
            return "regular"
        if self.kind == TRAP_SEGMENT:
            return TRAP
        if self.kind == SHUNT_SEGMENT:
            return RIGHT_SHUNT if self.direction == "right" else LEFT_SHUNT
        return self.point_class

    @property
    def lo(self) -> float:
        return self.x if self.is_point else self.a

    @property
    def hi(self) -> float:
        return self.x if self.is_point else self.b

    def endpoint(self, side: str) -> float:
        return self.a if side == "a" else self.b

    def interior_point(self) -> float:
        """The midpoint, else 1 inside the one finite end, else 0."""
        return interior_point(self.a, self.b)

    def contains_interior(self, x: float) -> bool:
        if self.is_point:
            return x == self.x
        return self.a < x < self.b

    def partial_barrier(self) -> Optional[float]:
        if self.kind == SHUNT_SEGMENT and self.reach.startswith("partial:"):
            return float(self.reach.split(":", 1)[1])
        return None

    def to_dict(self) -> dict:
        if self.kind == SINGULAR_POINT:
            return {"kind": self.kind, "x": self.x, "class": self.point_class}
        out = {"kind": self.kind, "a": ext(self.a), "b": ext(self.b)}
        if self.kind == SHUNT_SEGMENT:
            out["direction"] = self.direction
            if self.reach != "full":
                out["reach"] = self.reach
        if self.kind == REGULAR:
            out["scale"] = self.scale_src
            out["speed"] = self.speed.to_dict()
        return out


@dataclass(frozen=True)
class DiffusionSpec:
    name: str
    pieces: tuple
    description: str = ""

    def piece_at(self, x: float):
        """(index, piece) whose interior or position contains the finite x."""
        if math.isinf(x):
            raise DomainError("piece_at needs a finite point")
        for i, p in enumerate(self.pieces):
            if p.contains_interior(x):
                return i, p
        raise DomainError(f"point {x} not covered; boundaries are explicit pieces")

    def regular_indices(self) -> tuple:
        return tuple(i for i, p in enumerate(self.pieces) if p.kind == REGULAR)

    def neighbor(self, index: int, side: str):
        """Adjacent piece left of (side 'a') or right of (side 'b') a piece."""
        j = index - 1 if side == "a" else index + 1
        if 0 <= j < len(self.pieces):
            return self.pieces[j]
        return None

    def to_dict(self) -> dict:
        out = {"name": self.name}
        if self.description:
            out["description"] = self.description
        out["pieces"] = [p.to_dict() for p in self.pieces]
        return out


# ---------------------------------------------------------------------------
# document parsing


def _load_ext(v, where):
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    if isinstance(v, str):
        s = v.strip()
        if s in ("-inf",):
            return -math.inf
        if s in ("+inf", "inf"):
            return math.inf
        try:
            return float(s)
        except ValueError:
            pass
    raise SpecParseError(f'{where}: expected a number or "-inf"/"+inf", got {v!r}')


def ext(v: float):
    """v as a document or report value: infinities become "+inf" and "-inf"."""
    return v if math.isfinite(v) else ("+inf" if v > 0 else "-inf")


def _parse_piece(d: dict, i: int) -> Piece:
    where = f"piece {i}"
    if not isinstance(d, dict):
        raise SpecParseError(f"{where}: must be an object")
    kind = d.get("kind")
    if kind not in _KINDS:
        raise SpecParseError(f"{where}: unknown kind {kind!r}; expected one of {_KINDS}")
    if kind == SINGULAR_POINT:
        unknown = set(d) - {"kind", "x", "class"}
        if unknown:
            raise SpecParseError(f"{where}: unknown field(s) {sorted(unknown)}")
        if "x" not in d or "class" not in d:
            raise SpecParseError(f"{where}: singular_point needs x and class")
        x = _load_ext(d["x"], where)
        if math.isinf(x):
            raise SpecParseError(f"{where}: singular_point must sit at a finite x")
        cls = d["class"]
        if cls not in _CLASSES:
            raise SpecParseError(f"{where}: unknown class {cls!r}; expected one of {_CLASSES}")
        return Piece.point(x, cls)

    allowed = {"kind", "a", "b"}
    if kind == SHUNT_SEGMENT:
        allowed |= {"direction", "reach"}
    if kind == REGULAR:
        allowed |= {"scale", "speed"}
    unknown = set(d) - allowed
    if unknown:
        raise SpecParseError(f"{where}: unknown field(s) {sorted(unknown)}")
    if "a" not in d or "b" not in d:
        raise SpecParseError(f"{where}: interval piece needs a and b")
    a = _load_ext(d["a"], where)
    b = _load_ext(d["b"], where)
    if not a < b:
        raise SpecParseError(f"{where}: needs a < b, got a={a}, b={b}")

    if kind == SHUNT_SEGMENT:
        direction = d.get("direction")
        if direction not in ("left", "right"):
            raise SpecParseError(f"{where}: direction must be left or right")
        reach = d.get("reach", "full")
        if reach != "full":
            if not (isinstance(reach, str) and reach.startswith("partial:")):
                raise SpecParseError(f"{where}: reach must be full or partial:<x*>")
            try:
                bar = float(reach.split(":", 1)[1])
            except ValueError:
                raise SpecParseError(f"{where}: bad partial reach value in {reach!r}")
            if not (a < bar < b):
                raise SpecParseError(f"{where}: partial reach point must lie inside ({a}, {b})")
        return Piece.shunt(a, b, direction, reach)
    if kind == TRAP_SEGMENT:
        return Piece.trap_region(a, b)

    scale_src = d.get("scale")
    if not isinstance(scale_src, str):
        raise SpecParseError(f"{where}: regular_interval needs a scale expression string")
    try:
        scale = parse_expr(scale_src)
    except Exception as exc:
        raise SpecParseError(f"{where}: bad scale expression: {exc}") from exc
    if "speed" not in d:
        raise SpecParseError(f"{where}: regular_interval needs a speed object")
    speed = MeasureSpec.from_dict(d["speed"], where)
    return Piece(REGULAR, a=a, b=b, scale_src=scale_src, scale=scale, speed=speed)


def _check_structure(pieces) -> None:
    if not pieces:
        raise SpecParseError("spec has no pieces")
    # a singular point at x precedes the interval that starts at x
    order = sorted(range(len(pieces)), key=lambda i: (pieces[i].lo, not pieces[i].is_point))
    if list(order) != list(range(len(pieces))):
        raise SpecParseError("pieces must be listed in ascending order")
    prev = None
    cursor = -math.inf
    for i, p in enumerate(pieces):
        if p.is_point:
            if prev is None or prev.is_point:
                raise SpecParseError(
                    f"piece {i}: singular_point at {p.x} must follow an interval piece")
            if p.x != cursor:
                if p.x < cursor:
                    raise SpecParseError(f"piece {i}: overlap at {p.x}")
                raise SpecParseError(f"piece {i}: coverage gap before {p.x}")
        else:
            if p.a > cursor:
                raise SpecParseError(f"piece {i}: coverage gap on ({cursor}, {p.a})")
            if p.a < cursor:
                raise SpecParseError(f"piece {i}: overlap at {p.a}")
            if prev is not None and not prev.is_point and math.isfinite(p.a):
                raise SpecParseError(
                    f"piece {i}: boundary {p.a} between interval pieces needs an "
                    f"explicit singular_point piece")
            cursor = p.b
        prev = p
    last = pieces[-1]
    if last.is_point or last.b != math.inf:
        raise SpecParseError("pieces must cover the line up to +inf")
    if pieces[0].is_point or pieces[0].a != -math.inf:
        raise SpecParseError("pieces must cover the line from -inf")


def parse_spec(doc) -> DiffusionSpec:
    """Parse a spec document (JSON text or an already-decoded dict)."""
    if isinstance(doc, (str, bytes)):
        try:
            data = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SpecParseError(f"invalid JSON: {exc}") from exc
    else:
        data = doc
    if not isinstance(data, dict):
        raise SpecParseError("spec document must be a JSON object")
    unknown = set(data) - {"name", "description", "pieces"}
    if unknown:
        raise SpecParseError(f"unknown top-level field(s) {sorted(unknown)}")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise SpecParseError("spec needs a non-empty name")
    raw_pieces = data.get("pieces")
    if not isinstance(raw_pieces, list) or not raw_pieces:
        raise SpecParseError("spec needs a non-empty pieces list")
    pieces = tuple(_parse_piece(d, i) for i, d in enumerate(raw_pieces))
    _check_structure(pieces)
    for i, p in enumerate(pieces):
        if p.kind == REGULAR:
            for at, w in p.speed.atoms:
                if not (p.a <= at <= p.b):
                    raise SpecParseError(
                        f"piece {i}: atom at {at} outside closed interval [{p.a}, {p.b}]")
    return DiffusionSpec(name=name, pieces=pieces,
                         description=data.get("description", ""))


def load_spec(path) -> DiffusionSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def serialize_spec(spec: DiffusionSpec) -> str:
    """Canonical JSON text; parse(serialize(s)) == s."""
    return json.dumps(spec.to_dict(), indent=2) + "\n"


def spec_digest(spec: DiffusionSpec) -> str:
    return hashlib.sha256(serialize_spec(spec).encode()).hexdigest()


# ---------------------------------------------------------------------------
# evaluation


def _interior_grid(a, b):
    """Sample grid biased toward both endpoints, all points interior."""
    t = _GRID_T
    if math.isfinite(a) and math.isfinite(b):
        return a + (b - a) * t
    # map through a bounded coordinate for infinite ends
    lo = math.atan(a) if math.isfinite(a) else -math.pi / 2
    hi = math.atan(b) if math.isfinite(b) else math.pi / 2
    return np.tan(lo + (hi - lo) * t)


def eval_scale(piece: Piece, x):
    """Scale value(s) at interior point(s) of a regular piece."""
    if piece.kind != REGULAR:
        raise DomainError("scale is defined on regular pieces only")
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= piece.a) or np.any(xs >= piece.b):
        raise DomainError(f"point outside the open interval ({piece.a}, {piece.b})")
    return evaluate(piece.scale, x if isinstance(x, np.ndarray) else float(x))


def eval_speed_mass(piece: Piece, u: float, v: float) -> float:
    """Speed mass of the open interval (u, v) inside a regular piece.

    Counts the density integral plus atoms strictly inside (u, v), the
    integral taken to a relative tolerance of 1e-8 by ``span_integral``.
    Shells run only toward an end of (u, v) that is infinite or an
    endpoint of the piece: inf when they diverge, UndeterminedVerdict
    when no verdict is reached.  An interval with neither is one adaptive
    cell, which raises QuadratureError when it misses the tolerance.
    """
    if piece.kind != REGULAR:
        raise DomainError("speed mass is defined on regular pieces only")
    if not (piece.a <= u < v <= piece.b):
        raise DomainError(f"need {piece.a} <= u < v <= {piece.b}")
    dens = piece.speed.density
    res = span_integral(lambda z: evaluate(dens, z), u, v,
                        u == piece.a, v == piece.b)
    if res.verdict == INFINITE:
        return math.inf
    if res.verdict == UNDETERMINED:
        raise UndeterminedVerdict(
            f"speed mass of ({u}, {v}) undetermined {res.note}")
    return res.value + sum(w for at, w in piece.speed.atoms if u < at < v)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    code: str
    where: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(spec: DiffusionSpec) -> ValidationReport:
    """Audit semantic invariants; empty report means valid."""
    out = []
    for i, p in enumerate(spec.pieces):
        where = f"piece {i}"
        if p.kind == REGULAR:
            grid = _interior_grid(p.a, p.b)
            try:
                svals = evaluate(p.scale, grid)
            except Exception as exc:
                out.append(Violation("scale_eval", where, f"scale not evaluable: {exc}"))
            else:
                if not np.all(np.isfinite(svals)):
                    k = int(np.flatnonzero(~np.isfinite(svals))[0])
                    out.append(Violation("scale_eval", where,
                                         f"scale not finite near x = {grid[k]:.6g}"))
                elif not np.all(np.diff(svals) > 0):
                    k = int(np.flatnonzero(np.diff(svals) <= 0)[0])
                    out.append(Violation(
                        "scale_monotone", where,
                        f"scale not strictly increasing near x = {grid[k]:.6g}"))
            try:
                dvals = evaluate(p.speed.density, grid)
            except Exception as exc:
                out.append(Violation("density_eval", where, f"density not evaluable: {exc}"))
            else:
                if np.any(dvals < 0):
                    k = int(np.flatnonzero(dvals < 0)[0])
                    out.append(Violation("density_sign", where,
                                         f"density negative near x = {grid[k]:.6g}"))
                else:
                    # sampled full-support audit on eight chunks
                    empty = ~np.logical_or.reduceat(dvals != 0, _CHUNK_STARTS)
                    for c in np.flatnonzero(empty).tolist():
                        lo, hi = grid[_CHUNK_STARTS[c]], grid[_CHUNK_LASTS[c]]
                        if not any(lo <= at <= hi for at, _ in p.speed.atoms):
                            out.append(Violation(
                                "support_gap", where,
                                f"no sampled mass on ({lo:.6g}, {hi:.6g})"))
                            break
            for at, w in p.speed.atoms:
                if w <= 0:
                    out.append(Violation("atom_weight", where,
                                         f"atom at {at} has non-positive weight {w}"))
        if p.is_point:
            if spec.pieces[i - 1].cls in _RIGHT_SINGULAR and p.cls not in _RIGHT_SINGULAR:
                out.append(Violation(
                    "closedness", where,
                    f"upward limit of right-singular material at {p.x} forces class "
                    f"right_shunt or trap, got {p.point_class}"))
            if spec.pieces[i + 1].cls in _LEFT_SINGULAR and p.cls not in _LEFT_SINGULAR:
                out.append(Violation(
                    "closedness", where,
                    f"downward limit of left-singular material at {p.x} forces class "
                    f"left_shunt or trap, got {p.point_class}"))
    return ValidationReport(tuple(out))
