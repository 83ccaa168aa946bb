"""Energy form of the symmetrized process and its test functions.

Test functions are piecewise-cubic profiles written in the scale
coordinate of each component, with constant extension beyond their
breakpoint span.  The energy of two functions is

    sum over components of  (1/2) * integral of F'(u) G'(u) du,

u being the scale coordinate.  Membership of the killed form's domain
requires, in this order: vanishing limits at every exit endpoint,
finite mass of F^2 against the symmetrizing measure, and finiteness of
the energy integral (automatic for bounded-span profiles, but jumps
between segments are rejected).

``clip_unit`` applies the unit contraction min(max(F, 0), 1) exactly by
splitting segments at the real roots of F and F - 1.  ``check_regular_form``
verifies the symmetrizing measure is finite on compact windows and
``check_adapted`` compares endpoint membership against scale limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import boundary_profile
from .errors import (DomainError, MembershipError, NotSymmetrizableError,
                     UndeterminedVerdict)
from .expr import evaluate
from .model import ext
from .quadrature import FINITE, INFINITE, UNDETERMINED, cell_quad, improper_integral
from .symmetry import SymmetryReport, check_symmetrizable

__all__ = ["Profile", "TestFunction", "FormDescriptor", "make_form",
           "energy", "membership", "require_member", "clip_unit",
           "check_regular_form", "check_adapted", "linear_profile",
           "ramp_profile", "indicator_profile",
           "RegularFormReport", "AdaptedReport", "MembershipReport"]

_JUMP_TOL = 1e-9
_EXIT_TOL = 1e-8
_WINDOWS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)  # half-widths k of [-k, k]
_ENERGY_TOL = 1e-8  # rel_tol of each energy cell
_INDICATOR_PAD = 1e-6  # width of the ramps of indicator_profile


def _like_input(out):
    """A float for a 0-d result, the array otherwise."""
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class Profile:
    """Piecewise cubic in the scale coordinate, constant outside.

    ``value`` and ``derivative`` take a float or an ndarray of scale
    coordinates and return a float or an ndarray of the same shape.
    """

    breakpoints: tuple   # strictly increasing, length K+1
    coefficients: tuple  # K rows (c0, c1, c2, c3), absolute in u

    def __post_init__(self):
        br = self.breakpoints
        if len(br) < 2 or len(self.coefficients) != len(br) - 1:
            raise DomainError("profile needs K+1 breakpoints and K coefficient rows")
        if any(not (br[i] < br[i + 1]) for i in range(len(br) - 1)):
            raise DomainError("profile breakpoints must be strictly increasing")
        if any(len(c) != 4 for c in self.coefficients):
            raise DomainError("each segment needs four cubic coefficients")
        # array copies for vectorized evaluation; not dataclass fields
        object.__setattr__(self, "_br", np.asarray(br, dtype=float))
        object.__setattr__(self, "_rows",
                           np.asarray(self.coefficients, dtype=float))

    def _coefficients_at(self, u):
        """(c0, c1, c2, c3) of the segment holding each u."""
        j = np.searchsorted(self._br, u, side="right") - 1
        return np.moveaxis(self._rows[np.clip(j, 0, len(self._rows) - 1)], -1, 0)

    def value(self, u):
        u = np.clip(u, self._br[0], self._br[-1])
        c0, c1, c2, c3 = self._coefficients_at(u)
        return _like_input(((c3 * u + c2) * u + c1) * u + c0)

    def derivative(self, u):
        outside = (u < self._br[0]) | (u > self._br[-1])
        u = np.clip(u, self._br[0], self._br[-1])
        c0, c1, c2, c3 = self._coefficients_at(u)
        return _like_input(np.where(outside, 0.0, (3.0 * c3 * u + 2.0 * c2) * u + c1))

    def jumps(self) -> tuple:
        """Junction discontinuities (u, size)."""
        out = []
        for j in range(1, len(self.breakpoints) - 1):
            u = self.breakpoints[j]
            a = self.coefficients[j - 1]
            b = self.coefficients[j]
            va = ((a[3] * u + a[2]) * u + a[1]) * u + a[0]
            vb = ((b[3] * u + b[2]) * u + b[1]) * u + b[0]
            if abs(va - vb) > _JUMP_TOL:
                out.append((u, vb - va))
        return tuple(out)

    def as_dict(self) -> dict:
        return {"breakpoints": list(self.breakpoints),
                "coefficients": [list(c) for c in self.coefficients]}


@dataclass(frozen=True)
class TestFunction:
    """Profiles keyed by component index; missing components mean zero."""

    profiles: tuple  # (component_index, Profile) pairs

    def profile_for(self, component: int):
        for n, prof in self.profiles:
            if n == component:
                return prof
        return None

    def as_dict(self) -> dict:
        return {str(n): p.as_dict() for n, p in self.profiles}


def linear_profile(u_points, values) -> Profile:
    """Continuous piecewise-linear profile through (u_points, values)."""
    u_points = tuple(float(u) for u in u_points)
    values = tuple(float(v) for v in values)
    if len(u_points) != len(values) or len(u_points) < 2:
        raise DomainError("need matching u and value lists, at least two points")
    coeffs = []
    for j in range(len(u_points) - 1):
        u0, u1 = u_points[j], u_points[j + 1]
        v0, v1 = values[j], values[j + 1]
        slope = (v1 - v0) / (u1 - u0)
        coeffs.append((v0 - slope * u0, slope, 0.0, 0.0))
    return Profile(u_points, tuple(coeffs))


def ramp_profile(u0: float, u1: float, v0: float = 0.0, v1: float = 1.0) -> Profile:
    """Linear ramp from v0 at u0 to v1 at u1, constant outside."""
    return linear_profile((u0, u1), (v0, v1))


def indicator_profile(u0: float, u1: float) -> Profile:
    """Indicator of [u0, u1), exact on the closed span, zero outside.

    Discontinuous, so it is not an energy-domain member; meant for
    pointwise evaluation.
    """
    return Profile((u0 - _INDICATOR_PAD, u0, u1, u1 + _INDICATOR_PAD),
                   ((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0),
                    (0.0, 0.0, 0.0, 0.0)))


# ---------------------------------------------------------------------------
# the form


@dataclass(frozen=True)
class FormDescriptor:
    """Killed-form data: verdicts, components and symmetrizing measure."""

    spec: object
    report: SymmetryReport  # its measure is the form's reference measure
    rel_tol: float = 1e-6   # the tolerance of the verdicts and the profile


def make_form(spec, rel_tol: float = 1e-6) -> FormDescriptor:
    report = check_symmetrizable(spec, rel_tol)
    if not report.killed:
        raise NotSymmetrizableError(report.reason)
    return FormDescriptor(spec, report, rel_tol)


def energy(form: FormDescriptor, f: TestFunction, g: TestFunction) -> float:
    """Bilinear energy: half the integral of F'G' in scale coordinate,
    summed over components."""
    total = 0.0
    for c in form.report.components:
        pf = f.profile_for(c.index)
        pg = g.profile_for(c.index)
        if pf is None or pg is None:
            continue
        lo = max(pf.breakpoints[0], pg.breakpoints[0])
        hi = min(pf.breakpoints[-1], pg.breakpoints[-1])
        if hi <= lo:
            continue
        grid = sorted({lo, hi}
                      | {u for u in pf.breakpoints if lo < u < hi}
                      | {u for u in pg.breakpoints if lo < u < hi})
        for a, b in zip(grid, grid[1:]):
            total += cell_quad(
                lambda u: pf.derivative(u) * pg.derivative(u), a, b,
                _ENERGY_TOL)
    return 0.5 * total


# ---------------------------------------------------------------------------
# membership


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    reasons: tuple
    mass: float
    self_energy: float

    def as_dict(self) -> dict:
        return {"ok": self.ok, "reasons": list(self.reasons),
                "mass": ext(self.mass) if not math.isnan(self.mass) else "unknown",
                "self_energy": self.self_energy}


def _square_mass_side(form, entry, prof, piece, side, rel_tol):
    """(verdict, value, note) for the F^2 m-mass toward one entry end."""
    endpoint = entry.lo if side == "lo" else entry.hi
    hint = entry.hint_lo if side == "lo" else entry.hint_hi
    u_lim = boundary_profile(form.spec, form.rel_tol)[
        (entry.piece_index, "a" if side == "lo" else "b")].scale_limit
    tail = prof.value(u_lim)
    if abs(tail) > 0 and hint == "infinite":
        return INFINITE, math.inf, "non-vanishing tail against infinite end mass"

    def fx(x):
        v = prof.value(evaluate(piece.scale, x))
        return entry.weight * v * v * evaluate(entry.density, x)

    res = improper_integral(fx, piece.interior_point(), endpoint, rel_tol)
    if res.verdict == UNDETERMINED and hint == "finite":
        # bounded profile against declared-finite end mass
        return FINITE, res.value, "finite by end-mass declaration"
    return res.verdict, res.value, res.note


def membership(form: FormDescriptor, tf: TestFunction,
               rel_tol: float = 1e-6) -> MembershipReport:
    """Domain membership for the killed form."""
    reasons = []
    profile = boundary_profile(form.spec, form.rel_tol)
    # 1. limits at exit endpoints must vanish
    for c in form.report.components:
        prof = tf.profile_for(c.index)
        piece = form.spec.pieces[c.piece_index]
        for side in c.exit_sides:
            u_lim = profile[(c.piece_index, side)].scale_limit
            val = 0.0 if prof is None else prof.value(u_lim)
            if abs(val) > _EXIT_TOL:
                e = piece.endpoint(side)
                reasons.append(
                    f"component {c.index}: value {val:.3g} at exit endpoint "
                    f"{ext(e)} must vanish")
    if reasons:
        return MembershipReport(False, tuple(reasons), math.nan, math.nan)

    # 2. continuity inside each profile
    for n, prof in tf.profiles:
        for u, size in prof.jumps():
            reasons.append(f"component {n}: jump of {size:.3g} at u={u:.6g}")
    if reasons:
        return MembershipReport(False, tuple(reasons), math.nan, math.nan)

    # 3. finite mass of F^2 against the measure
    total_mass = 0.0
    for c in form.report.components:
        prof = tf.profile_for(c.index)
        if prof is None:
            continue
        piece = form.spec.pieces[c.piece_index]
        for entry in form.report.measure.entries:
            if entry.component != c.index:
                continue
            for side in ("lo", "hi"):
                verdict, value, note = _square_mass_side(
                    form, entry, prof, piece, side, rel_tol)
                if verdict == INFINITE:
                    reasons.append(
                        f"component {c.index}: infinite F^2 mass toward the "
                        f"{side} end ({note})")
                elif verdict == UNDETERMINED:
                    reasons.append(
                        f"component {c.index}: undecided F^2 mass toward the "
                        f"{side} end; declare speed.hints to settle it")
                else:
                    total_mass += abs(value)
            for pos, w in entry.atoms:
                if entry.contains(pos):
                    u = float(evaluate(piece.scale, pos))
                    v = prof.value(u)
                    total_mass += entry.weight * w * v * v
    if reasons:
        return MembershipReport(False, tuple(reasons), math.nan, math.nan)
    e_self = energy(form, tf, tf)
    return MembershipReport(True, (), total_mass, e_self)


def require_member(form: FormDescriptor, tf: TestFunction,
                   rel_tol: float = 1e-6) -> MembershipReport:
    rep = membership(form, tf, rel_tol)
    if not rep.ok:
        raise MembershipError("; ".join(rep.reasons))
    return rep


# ---------------------------------------------------------------------------
# unit contraction


def _real_roots_in(coeffs, lo, hi, shift):
    """Real roots of the cubic (shifted by -shift) strictly inside (lo, hi)."""
    c0, c1, c2, c3 = coeffs
    poly = [c3, c2, c1, c0 - shift]
    while poly and abs(poly[0]) < 1e-300:
        poly = poly[1:]
    if len(poly) < 2:
        return []
    scale = max(abs(lo), abs(hi), 1.0)
    out = []
    for r in np.roots(poly):
        if abs(r.imag) < 1e-9 * scale and lo + 1e-12 * scale < r.real < hi - 1e-12 * scale:
            out.append(float(r.real))
    return out


def clip_unit(tf: TestFunction) -> TestFunction:
    """Exact unit contraction min(max(F, 0), 1) of every profile."""
    clipped = []
    for n, prof in tf.profiles:
        breaks = [prof.breakpoints[0]]
        coeffs = []
        for j, c in enumerate(prof.coefficients):
            lo, hi = prof.breakpoints[j], prof.breakpoints[j + 1]
            cuts = sorted(set(_real_roots_in(c, lo, hi, 0.0)
                              + _real_roots_in(c, lo, hi, 1.0)))
            edges = [lo] + cuts + [hi]
            for a, b in zip(edges, edges[1:]):
                if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
                    continue
                mid = 0.5 * (a + b)
                v = ((c[3] * mid + c[2]) * mid + c[1]) * mid + c[0]
                if v < 0.0:
                    row = (0.0, 0.0, 0.0, 0.0)
                elif v > 1.0:
                    row = (1.0, 0.0, 0.0, 0.0)
                else:
                    row = tuple(c)
                if coeffs and coeffs[-1] == row:
                    breaks[-1] = b  # merge equal neighbouring rows
                else:
                    breaks.append(b)
                    coeffs.append(row)
        clipped.append((n, Profile(tuple(breaks), tuple(coeffs))))
    return TestFunction(tuple(clipped))


# ---------------------------------------------------------------------------
# structural checks of the form


@dataclass(frozen=True)
class RegularFormReport:
    ok: bool
    windows: tuple  # (k, verdict, value)

    def as_dict(self) -> dict:
        return {"ok": self.ok,
                "windows": [{"k": k, "verdict": v, "mass": ext(m)}
                            for k, v, m in self.windows]}


def check_regular_form(spec, rel_tol: float = 1e-6) -> RegularFormReport:
    """Is the canonical symmetrizing measure finite on every compact window.

    Defined for processes symmetrizable without killing; the question is
    about their energy form on the whole line.  rel_tol is the verdict's
    tolerance; the masses of the windows [-k, k], k = 1, 2, 4, ..., 32,
    are integrated to 1e-8, all six from one ``Measure.interval_masses``
    batch: entry by entry, the windows' spans share one integrand call
    per block of cells or shells, and each window's mass has the bits of
    its own ``interval_mass``.  The report stops at the first infinite
    window; an undecidable window raises, suggesting an end-mass
    declaration.
    """
    report = check_symmetrizable(spec, rel_tol)
    if not report.full:
        raise NotSymmetrizableError(
            f"whole-line form checks need a process symmetrizable without "
            f"killing; {report.reason}")
    windows = []
    ok = True
    masses = report.measure.interval_masses([(-k, k) for k in _WINDOWS])
    for k, (verdict, value) in zip(_WINDOWS, masses):
        windows.append((float(k), verdict, value))
        if verdict == INFINITE:
            ok = False
            break
        if verdict == UNDETERMINED:
            raise UndeterminedVerdict(
                f"mass of [{-k}, {k}] undecided; declare speed.hints on the "
                f"pieces meeting this window")
    return RegularFormReport(ok, tuple(windows))


@dataclass(frozen=True)
class AdaptedReport:
    ok: bool
    violations: tuple

    def as_dict(self) -> dict:
        return {"ok": self.ok, "violations": [dict(v) for v in self.violations]}


def check_adapted(spec, rel_tol: float = 1e-6) -> AdaptedReport:
    """Endpoint membership must match scale-limit finiteness.

    A finite component endpoint belongs to the component exactly when
    the scale coordinate stays bounded toward it.  This is guaranteed
    for processes symmetrizable without killing, so any violation flags
    a numerics failure rather than a property of the spec.
    """
    report = check_symmetrizable(spec, rel_tol=rel_tol)
    if not report.full:
        raise NotSymmetrizableError(
            f"adaptedness is defined for processes symmetrizable without "
            f"killing; {report.reason}")
    violations = []
    profile = boundary_profile(spec, rel_tol)
    for c in report.components:
        for side, endpoint, included in (("a", c.lo, c.lo_closed),
                                         ("b", c.hi, c.hi_closed)):
            if not math.isfinite(endpoint):
                continue
            s_lim = profile[(c.piece_index, side)].scale_limit
            if included != math.isfinite(s_lim):
                violations.append((("component", c.index), ("side", side),
                                   ("endpoint", endpoint),
                                   ("included", included),
                                   ("scale_limit", ext(s_lim))))
    return AdaptedReport(not violations, tuple(violations))
