"""The embedded birth-death chain of a diffusion on a simulation window.

Each regular interval met by the simulation window gets a grid that is
uniform in its scale coordinate, so the two cells of every walk node are
equal in scale, the node is a fair coin, and the chain is exactly
scale-linear; mean holding times come from the Green function of the
two-cell exit problem, so hitting probabilities and mean exit times are
exact at the nodes; laws at a finite time t converge as h goes to 0.  The cell integrals are first rounds of the
analysis's GK21 rule, checked by their own error estimate
(``_regular_cells``).  Shunt segments get deterministic unit-drift hops
on an x-uniform grid; shunt points become deterministic entry moves into
their open side; traps absorb; window edges kill.

Node mass is the speed measure m of each node's hat function in scale:
A_k-1 / du_k-1 + B_k / du_k at a walk node, with du_k = u_k+1 - u_k and
A_k, B_k the integrals of s - u_k, u_k+1 - s against m over cell k.  Mass
times jump rate (probability over mean holding time) is then 1 / du_k
both ways across each cell, so the chain is reversible for it.  A shunt
point's entry node has the half hat of its open side, its holding time
over that cell's du; nodes that end paths or pass them one way have 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import EXIT, GLUE_TO_NEIGHBOR, INCLUDED_SHUNT, YES, boundary_profile
from .errors import ChainBuildError, DomainError
from .expr import evaluate
from .model import REGULAR, SHUNT_SEGMENT, TRAP, DiffusionSpec
from .quadrature import FINITE, _first_rounds, improper_integral

__all__ = ["ChainModel", "build_chain"]

# node kinds
WALK, DET, TRAP_NODE, KILL_WINDOW, KILL_INF = 0, 1, 2, 3, 4


@dataclass
class ChainModel:
    window: tuple
    h: float
    x: np.ndarray          # node positions (KILL_INF nodes sit at +-inf)
    u: np.ndarray          # node scale values
    kind: np.ndarray       # int8 node kinds
    tau: np.ndarray        # mean holding time; 0 at terminal nodes
    nbr_left: np.ndarray
    nbr_right: np.ndarray
    det_target: np.ndarray
    node_mass: np.ndarray  # m-mass of each node's hat in scale (module doc)
    warnings: tuple = ()

    @property
    def n_nodes(self) -> int:
        return len(self.x)

    @property
    def min_tau(self) -> float:
        movable = self.kind <= DET
        vals = self.tau[movable]
        return float(vals.min()) if vals.size else math.inf

    def node_at(self, x0: float) -> int:
        """Nearest node to x0; refuses points far from every node."""
        if not self.n_nodes:
            raise DomainError("empty chain")
        if math.isnan(x0):
            raise DomainError("a start or target position must be a number, "
                              "got nan")
        if math.isinf(x0):
            cand = np.nonzero((self.kind == KILL_INF)
                              & (np.sign(self.x) == np.sign(x0)))[0]
            if cand.size:
                return int(cand[0])
            raise DomainError(f"no node at {x0}")
        finite = np.isfinite(self.x)
        d = np.where(finite, np.abs(self.x - x0), np.inf)
        i = int(np.argmin(d))
        span = self.window[1] - self.window[0]
        tol = max(self.h, 1e-9 * max(1.0, abs(x0)))
        if d[i] > max(2.0 * tol, 1e-6 * max(1.0, span if math.isfinite(span) else 1.0)):
            raise DomainError(
                f"start point {x0} is not covered by the chain (nearest node "
                f"{self.x[i]}); it may sit in trap material or outside the window")
        return i


def _invert_scale(piece, u_targets, x_lo, x_hi):
    """Positions with scale values u_targets, via vectorized bisection."""
    u_targets = np.asarray(u_targets, dtype=np.float64)
    bracket = [x_lo, x_hi]
    # grow an infinite bracket end until the scale value is straddled
    for k, sign, word in ((0, -1.0, "-inf"), (1, 1.0, "+inf")):
        if math.isfinite(bracket[k]):
            continue
        other = (x_lo, x_hi)[1 - k]
        goal = sign * (u_targets.max() if k else u_targets.min())
        probe = (other if math.isfinite(other) else 0.0) + sign
        for _ in range(200):
            if sign * float(evaluate(piece.scale, probe)) >= goal:
                break
            probe += sign * max(1.0, abs(probe))
        else:
            raise ChainBuildError(f"cannot bracket scale inversion toward {word}")
        bracket[k] = probe
    lo = np.full(u_targets.shape, bracket[0], dtype=np.float64)
    hi = np.full(u_targets.shape, bracket[1], dtype=np.float64)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        vm = np.asarray(evaluate(piece.scale, mid), dtype=np.float64)
        below = vm < u_targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if float(np.max(hi - lo)) <= 1e-13 * max(1.0, float(np.max(np.abs(mid)))):
            break
    return 0.5 * (lo + hi)


class _Builder:
    """Per-node lists of a chain under construction.  ``build_chain`` gives
    every singular point strictly inside the window its node first, in
    ``point_nodes`` by position; the pieces then look those nodes up."""

    def __init__(self, window, h):
        self.window, self.h = window, h
        self.x, self.u, self.kind, self.tau = [], [], [], []
        self.left, self.right, self.det, self.mass = [], [], [], []
        self.point_nodes = {}
        self.warnings = []

    def new_node(self, x, u, kind):
        self.x.append(float(x))
        self.u.append(float(u))
        self.kind.append(kind)
        self.tau.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.det.append(-1)
        self.mass.append(0.0)
        return len(self.x) - 1


def _regular_cells(piece, edges_x, edges_u):
    """Per-cell integrals A, B (module docstring) and the larger of their
    error estimates (0 out to +-inf): GK21 first rounds on finite cells,
    with s and rho evaluated once on every cell's nodes."""
    n = len(edges_x) - 1
    A, B, E = np.zeros((3, n))

    def rho_vec(y):
        return np.asarray(evaluate(piece.speed.density, y), dtype=np.float64)

    def s_vec(y):
        return np.asarray(evaluate(piece.scale, y), dtype=np.float64)

    fin_lo = 0 if math.isfinite(edges_x[0]) else 1
    fin_hi = n if math.isfinite(edges_x[-1]) else n - 1
    if fin_hi > fin_lo:
        fin, ahead = slice(fin_lo, fin_hi), slice(fin_lo + 1, fin_hi + 1)
        ul, uh = edges_u[fin, None], edges_u[ahead, None]

        def integrands(y):  # y holds the nodes of one cell per row of ul
            s = s_vec(y).reshape(len(ul), -1)
            rho = rho_vec(y).reshape(s.shape)
            return np.reshape(((s - ul) * rho, (uh - s) * rho), (2, -1))

        with np.errstate(all="ignore"):
            (A[fin], B[fin]), err, _ = _first_rounds(
                integrands, edges_x[fin], edges_x[ahead])
        E[fin] = np.maximum(err[0], err[1])
    # a cell out to -inf uses only its A part, the integral of (s - u_far) m;
    # a cell out to +inf only its B part, the integral of (u_far - s) m
    for far, near, sign, used in ((0, 1, 1.0, A), (-1, -2, -1.0, B)):
        if math.isfinite(edges_x[far]):
            continue
        u_far = edges_u[far]
        res = improper_integral(
            lambda y: sign * (s_vec(y) - u_far) * rho_vec(y),
            edges_x[near], edges_x[far])
        if res.verdict != FINITE:
            raise ChainBuildError(
                f"holding integral toward {edges_x[far]:+} does not "
                f"converge; provide a finite window")
        used[far] = res.value
    # atoms of the speed measure join their cell
    for pos, w in piece.speed.atoms:
        if pos < edges_x[0] or pos > edges_x[-1]:
            continue
        j = int(np.searchsorted(edges_x, pos, side="right")) - 1
        j = min(max(j, 0), n - 1)
        s_at = edges_u[j] if pos == edges_x[j] else (
            edges_u[j + 1] if pos == edges_x[j + 1] else float(evaluate(piece.scale, pos)))
        A[j] += w * (s_at - edges_u[j])
        B[j] += w * (edges_u[j + 1] - s_at)
    return A, B, E


def _end_node(builder, i, piece, cut, end, ana):
    """Node and scale value at one end of a regular piece's range in the
    window.  A cut end kills: at +-inf (approachable with bounded scale,
    or refused) or at a finite window edge.  An uncut end is the piece
    endpoint itself, whose singular point already has a node; it must be
    reachable from inside."""
    if math.isinf(end):
        if not math.isfinite(ana.scale_limit) or ana.approachable != YES:
            raise ChainBuildError(
                f"piece {i}: window reaches {end:+} but the end is not "
                f"approachable with bounded scale; provide a finite window")
        return builder.new_node(end, ana.scale_limit, KILL_INF), ana.scale_limit
    if cut:
        u = float(evaluate(piece.scale, end))
        return builder.new_node(end, u, KILL_WINDOW), u
    if ana.role not in (INCLUDED_SHUNT, GLUE_TO_NEIGHBOR, EXIT):
        raise ChainBuildError(
            f"piece {i}: endpoint {end} is inside the window but cannot be "
            f"reached from inside (role {ana.role}); shrink the window to "
            f"exclude it")
    node = builder.point_nodes[end]
    builder.u[node] = ana.scale_limit
    return node, ana.scale_limit


def _build_regular(builder, i, piece, profile):
    (w_lo, w_hi), h = builder.window, builder.h
    lo = max(piece.a, w_lo)
    hi = min(piece.b, w_hi)
    if hi <= lo:
        return
    cut_a, cut_b = w_lo >= piece.a, w_hi <= piece.b
    ana_a, ana_b = profile[(i, "a")], profile[(i, "b")]
    nid_lo, u_lo = _end_node(builder, i, piece, cut_a, lo, ana_a)
    nid_hi, u_hi = _end_node(builder, i, piece, cut_b, hi, ana_b)

    if math.isinf(u_lo) or math.isinf(u_hi):  # a cut at unbounded scale
        raise ChainBuildError(
            f"piece {i}: window edge {lo if math.isinf(u_lo) else hi} falls "
            f"on a piece endpoint where the scale is unbounded; move the "
            f"window edge off the endpoint")
    span = u_hi - u_lo
    if not (span > 0):
        raise ChainBuildError(f"piece {i}: empty scale span in the window")
    n_cells = max(int(round(span / h)), 1)
    if math.isinf(lo) or math.isinf(hi):
        n_cells = max(n_cells, 2)  # keep a finite quadrature anchor inside
    h_eff = span / n_cells
    u_nodes = u_lo + h_eff * np.arange(n_cells + 1)
    u_nodes[-1] = u_hi

    x_nodes = np.empty(n_cells + 1)
    x_nodes[0] = lo
    x_nodes[-1] = hi
    if n_cells > 1:
        x_nodes[1:-1] = _invert_scale(piece, u_nodes[1:-1], lo, hi)

    interior = [builder.new_node(x_nodes[k], u_nodes[k], WALK)
                for k in range(1, n_cells)]
    ids = [nid_lo] + interior + [nid_hi]
    for a, b in zip(ids, ids[1:]):
        builder.right[a] = b
        builder.left[b] = a

    A, B, err = _regular_cells(piece, x_nodes, u_nodes)
    with np.errstate(invalid="ignore"):
        ref = np.maximum(np.abs(A), np.abs(B))
        fin = np.isfinite(ref) & (ref > 0)
        rel = float(np.max(err[fin] / ref[fin])) if fin.any() else 0.0
    if rel > 1e-6:
        builder.warnings.append(
            f"piece {i}: holding-time quadrature error estimate {rel:.2e} "
            f"(GK21 Kronrod-Gauss, relative) exceeds 1e-6; the speed "
            f"density may be rough at this h")

    du = np.diff(u_nodes)
    dtot = u_nodes[2:] - u_nodes[:-2]
    tau_int = (A[:-1] * du[1:] + B[1:] * du[:-1]) / dtot
    mass_int = A[:-1] / du[:-1] + B[1:] / du[1:]
    for k, nid in enumerate(interior):
        builder.tau[nid] = float(tau_int[k])
        builder.mass[nid] = float(mass_int[k])

    # entry moves at included shunt endpoints (this piece is the open side)
    for end, cut, ana, tau, span, first in (
            (lo, cut_a, ana_a, B[0], du[0], ids[1]),
            (hi, cut_b, ana_b, A[-1], du[-1], ids[-2])):
        if not cut and ana.role == INCLUDED_SHUNT:
            node = builder.point_nodes[end]
            builder.det[node] = first
            builder.tau[node] = float(tau)
            builder.mass[node] = float(tau / span)


def _build_segment(builder, i, piece):
    (w_lo, w_hi), h = builder.window, builder.h
    if piece.partial_barrier() is not None:
        raise ChainBuildError(
            f"piece {i}: partial-reach shunt segments are symbolic only and "
            f"cannot be simulated")
    lo = max(piece.a, w_lo)
    hi = min(piece.b, w_hi)
    if hi <= lo:
        return
    if math.isinf(lo) or math.isinf(hi):
        raise ChainBuildError(
            f"piece {i}: shunt segment extends to infinity inside the window; "
            f"provide a finite window")
    n_cells = max(int(round((hi - lo) / h)), 1)
    h_eff = (hi - lo) / n_cells
    xs = lo + h_eff * np.arange(n_cells + 1)
    xs[-1] = hi

    down_right = piece.direction == "right"
    cut_a, cut_b = w_lo >= piece.a, w_hi <= piece.b
    up_cut, down_cut = (cut_a, cut_b) if down_right else (cut_b, cut_a)
    up_end, down_end = (lo, hi) if down_right else (hi, lo)

    if down_cut:
        cap = builder.new_node(down_end, math.nan, KILL_WINDOW)
    else:
        cap = builder.point_nodes[down_end]
    # body nodes walk downstream; the upstream edge node exists only when
    # the window cut it open (nothing ever arrives there, but paths may start)
    inner = list(xs[1:-1])
    up_positions = ([up_end] if up_cut else []) + (inner if down_right
                                                  else list(reversed(inner)))
    body = [builder.new_node(x, math.nan, DET) for x in up_positions]
    hop = body[1:] + [cap]
    for nid, target in zip(body, hop):
        builder.tau[nid] = h_eff
        builder.det[nid] = target

    # the upstream singular point feeds the first body node, unless it is
    # a trap or already pushes into the piece on its other side
    if not up_cut:
        pn = builder.point_nodes[up_end]
        if builder.kind[pn] == DET and builder.det[pn] == -1:
            first = body[0] if body else cap
            builder.det[pn] = first
            builder.tau[pn] = abs(builder.x[first] - up_end) if body else h_eff


def build_chain(spec: DiffusionSpec, window, h: float) -> ChainModel:
    """Discretize the part of the line inside the window.

    Every singular point strictly inside the window gets its node first:
    a trap absorbs, a shunt point is a deterministic move whose target
    the piece on its open side sets.  The pieces then build their nodes
    in order and look the point nodes up.  Endpoint roles come from
    ``boundary_profile`` at its fixed default tolerance, 1e-6."""
    if not (h > 0):
        raise DomainError("h must be positive")
    w_lo, w_hi = float(window[0]), float(window[1])
    if not (w_lo < w_hi):
        raise DomainError("window must be an interval (lo, hi)")
    profile = boundary_profile(spec)
    builder = _Builder((w_lo, w_hi), h)
    for p in spec.pieces:
        if p.is_point and w_lo < p.x < w_hi:
            builder.point_nodes[p.x] = builder.new_node(
                p.x, math.nan, TRAP_NODE if p.point_class == TRAP else DET)

    for i, p in enumerate(spec.pieces):
        if p.kind == REGULAR:
            _build_regular(builder, i, p, profile)
        elif p.kind == SHUNT_SEGMENT:
            _build_segment(builder, i, p)
        # trap segments carry no dynamics and get no nodes

    kind = np.asarray(builder.kind, dtype=np.int8)
    tau = np.asarray(builder.tau, dtype=np.float64)
    det = np.asarray(builder.det, dtype=np.int64)
    bad_det = (kind == DET) & (det < 0)
    if bad_det.any():
        j = int(np.nonzero(bad_det)[0][0])
        raise ChainBuildError(
            f"shunt point at {builder.x[j]} pushes toward material outside "
            f"the window; widen the window on its open side")
    bad_tau = (kind <= DET) & ~((tau > 0) & np.isfinite(tau))
    if bad_tau.any():
        j = int(np.nonzero(bad_tau)[0][0])
        raise ChainBuildError(
            f"degenerate holding time {tau[j]} at node x={builder.x[j]}; "
            f"the speed measure may vanish or blow up there")
    return ChainModel(
        (w_lo, w_hi), h, np.asarray(builder.x), np.asarray(builder.u), kind,
        tau, np.asarray(builder.left, dtype=np.int64),
        np.asarray(builder.right, dtype=np.int64), det,
        np.asarray(builder.mass), tuple(builder.warnings))
