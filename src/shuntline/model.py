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

from .errors import DomainError, ExprError, SpecParseError, UndeterminedVerdict
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


def ext(v: float):
    """v as a document or report value: infinities become "+inf" and "-inf"."""
    return v if math.isfinite(v) else ("+inf" if v > 0 else "-inf")


# Each document object (the spec, a piece of each kind, a speed, its hints,
# an atom) has one table that maps each field to (parser, default).  A parser
# takes the value and the path of the object it sits in; it rejects a value
# by raising one of _REJECTED (RecursionError: an expression nested too
# deep), which _fields turns into a SpecParseError.

_REQUIRED = object()  # the default of a field the document must give
_REJECTED = (TypeError, ValueError, ArithmeticError, RecursionError, ExprError)


def _fields(doc, table: dict, where: str) -> dict:
    """Every field of the document object ``doc`` at path ``where``, read
    by its table entry, with the defaults of the absent ones.

    Refuses a non-object, a missing required field, a rejected value and
    an unknown field, each as a SpecParseError naming the path and field.
    """
    if not isinstance(doc, dict):
        raise SpecParseError(f"{where}: must be an object")
    out = {}
    for name, (parse, default) in table.items():
        if name in doc:
            try:
                out[name] = parse(doc[name], where)
            except _REJECTED as exc:
                raise SpecParseError(f"{where}: {name}: {exc}") from exc
        elif default is _REQUIRED:
            raise SpecParseError(f"{where}: {name}: missing")
        else:
            out[name] = default
    if not doc.keys() <= table.keys():
        unknown = sorted(doc.keys() - table.keys(), key=str)
        raise SpecParseError(f"{where}: unknown field(s) {unknown}")
    return out


def _number(v, where) -> float:
    """A number, or a string float() reads, such as "-inf" or "+inf"."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise TypeError(f'expected a number or "-inf"/"+inf", got {v!r}')
    return float(v)


def _string(v, where) -> str:
    if not isinstance(v, str):
        raise TypeError(f"expected a string, got {v!r}")
    return v


def _one_of(*options):
    def parse(v, where):
        if v not in options:
            raise ValueError(f"{v!r} not in {options}")
        return v
    return parse


def _expr(v, where) -> tuple:
    """(source, parsed expression)."""
    return _string(v, where), parse_expr(v)


def _reach(v, where) -> str:
    """"full", or "partial:<x*>" with a number x*."""
    if v != "full":
        if not (isinstance(v, str) and v.startswith("partial:")):
            raise ValueError(f'expected "full" or "partial:<x*>", got {v!r}')
        float(v.split(":", 1)[1])
    return v


def _list(v) -> list:
    if not isinstance(v, list):
        raise TypeError(f"expected a list, got {v!r}")
    return v


def _atoms(v, where) -> tuple:
    atoms = [_fields(atom, _ATOM, f"{where}: atom {i}") for i, atom in enumerate(_list(v))]
    return tuple((f["at"], f["weight"]) for f in atoms)


def _hints(v, where) -> tuple:
    f = _fields(v, _HINT, f"{where}: hints")
    return f["a"], f["b"]


def _speed(v, where) -> MeasureSpec:
    f = _fields(v, _SPEED, f"{where}: speed")
    return MeasureSpec(*f["density"], f["atoms"], *f["hints"])


def _piece(d, where: str) -> Piece:
    kind = d.get("kind") if isinstance(d, dict) else None
    # an unknown kind is refused by the kind field alone
    f = _fields(d, _PIECE[kind] if kind in _KINDS else {"kind": _KIND}, where)
    if kind == SINGULAR_POINT:
        if not math.isfinite(f["x"]):
            raise SpecParseError(f"{where}: x: must be finite, got {f['x']}")
        return Piece(kind, x=f["x"], point_class=f["class"])
    a, b = f["a"], f["b"]
    if not a < b:
        raise SpecParseError(f"{where}: b: needs a < b, got a={a}, b={b}")
    scale_src, scale = f.get("scale", (None, None))
    piece = Piece(kind, a=a, b=b, direction=f.get("direction"),
                  reach=f.get("reach", "full"), scale_src=scale_src,
                  scale=scale, speed=f.get("speed"))
    bar = piece.partial_barrier()
    if bar is not None and not a < bar < b:
        raise SpecParseError(f"{where}: reach: partial reach point must lie inside ({a}, {b})")
    for j, (at, _) in enumerate(piece.speed.atoms if kind == REGULAR else ()):
        if not a <= at <= b:
            raise SpecParseError(
                f"{where}: speed: atom {j}: at: {at} outside closed interval [{a}, {b}]")
    return piece


def _pieces(v, where) -> tuple:
    return tuple(_piece(d, f"piece {i}") for i, d in enumerate(_list(v)))


_KIND = (_one_of(*_KINDS), _REQUIRED)
_END = (_number, _REQUIRED)
_PIECE = {
    REGULAR: {"kind": _KIND, "a": _END, "b": _END,
              "scale": (_expr, _REQUIRED), "speed": (_speed, _REQUIRED)},
    SHUNT_SEGMENT: {"kind": _KIND, "a": _END, "b": _END,
                    "direction": (_one_of("left", "right"), _REQUIRED),
                    "reach": (_reach, "full")},
    TRAP_SEGMENT: {"kind": _KIND, "a": _END, "b": _END},
    SINGULAR_POINT: {"kind": _KIND, "x": _END,
                     "class": (_one_of(*_CLASSES), _REQUIRED)},
}
_SPEED = {"density": (_expr, _REQUIRED), "atoms": (_atoms, ()),
          "hints": (_hints, ("unknown", "unknown"))}
_HINT = {"a": (_one_of(*_HINTS), "unknown"), "b": (_one_of(*_HINTS), "unknown")}
_ATOM = {"at": _END, "weight": _END}
_SPEC = {"name": (_string, _REQUIRED), "description": (_string, ""),
         "pieces": (_pieces, _REQUIRED)}


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


def parse_spec(doc) -> DiffusionSpec:
    """Parse a spec document (JSON text or an already-decoded dict)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as exc:
            raise SpecParseError(f"invalid JSON: {exc}") from exc
    f = _fields(doc, _SPEC, "spec")
    if not f["name"]:
        raise SpecParseError("spec: name: must not be empty")
    _check_structure(f["pieces"])
    return DiffusionSpec(name=f["name"], pieces=f["pieces"],
                         description=f["description"])


def load_spec(path) -> DiffusionSpec:
    with open(path, "rb") as fh:
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
                if not 0 < w < math.inf:
                    out.append(Violation("atom_weight", where,
                                         f"atom at {at} has weight {w}, not in (0, inf)"))
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
