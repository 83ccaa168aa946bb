"""Monte Carlo engine: an embedded birth-death chain for the diffusion.

Each regular interval met by the simulation window gets a grid that is
uniform in its scale coordinate.  Jump probabilities make the chain
exactly scale-linear, and mean holding times come from the Green
function of the two-cell exit problem, so hitting probabilities and
mean exit times are exact at the nodes; laws at a finite time t
converge as h goes to 0.  Shunt segments
get deterministic unit-drift hops on an x-uniform grid; shunt points
become deterministic entry moves into their open side; traps absorb;
window edges kill.

Randomness is a stateless counter hash of (seed, replication, step), so
a replication's path does not depend on which other replications run
beside it.  The engine is one loop over the replications still running,
and ``simulate_path`` traces one replication through the same loop;
``n_jobs`` is accepted for compatibility and changes nothing.  Holding
times are deterministic by default; ``exponential_holding=True`` draws
exponential times at walk nodes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .boundary import EXIT, GLUE_TO_NEIGHBOR, INCLUDED_SHUNT, YES, boundary_profile
from .errors import ChainBuildError, DomainError
from .expr import evaluate
from .model import REGULAR, SHUNT_SEGMENT, TRAP, DiffusionSpec
from .quadrature import FINITE, improper_integral, gauss_cells

__all__ = ["ChainModel", "build_chain", "run", "simulate_path", "PathResult",
           "estimate_hitting", "analytic_hitting", "estimate_symmetry_defect",
           "MODE_FULL", "MODE_KILLED", "MODE_PART", "STATUS_NAMES"]

# node kinds
WALK, DET, TRAP_NODE, KILL_WINDOW, KILL_INF = 0, 1, 2, 3, 4
# replication statuses
RUNNING, ALIVE, KILLED_WINDOW, ABSORBED_TRAP, DEAD_INF = 0, 1, 2, 3, 4
STATUS_NAMES = {ALIVE: "alive", KILLED_WINDOW: "killed_at_window",
                ABSORBED_TRAP: "absorbed_at_trap",
                DEAD_INF: "dead_at_infinite_endpoint"}

MODE_FULL = "full"
MODE_KILLED = "killed_at_traps"
MODE_PART = "part_on_window"
_MODES = (MODE_FULL, MODE_KILLED, MODE_PART)

_STEP_START = 1 << 62  # counter slot reserved for start-node sampling
_BLOCK = 8192  # engine uniforms drawn per block (a block spans <= 256 steps)
_GAUSS_ORDER = 16  # Gauss-Legendre order of the holding-time cell integrals
_CHECK_ORDER = 8   # lower order they are audited against


# ---------------------------------------------------------------------------
# counter-based uniforms

_PHI = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_C_REP = np.uint64(0xD1342543DE82EF95)
_C_STEP = np.uint64(0xAF251AF3B0F025B5)


def _mix(z):
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _rep_key(seed, rep):
    """The (seed, rep) part of the counter; rep may be an array."""
    with np.errstate(over="ignore"):
        return (np.uint64(seed) * _PHI) \
            ^ (np.asarray(rep, dtype=np.uint64) * _C_REP)


def _keyed_uniform(key, step):
    """U[0,1) from replication keys and steps; arrays broadcast."""
    with np.errstate(over="ignore"):
        z = key ^ (np.asarray(step, dtype=np.uint64) * _C_STEP)
        z = _mix(_mix(z + _PHI))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def _uniform(seed, rep, step):
    """U[0,1) from the (seed, rep, step) counter; rep may be an array."""
    return _keyed_uniform(_rep_key(seed, rep), step)


# ---------------------------------------------------------------------------
# chain model


@dataclass
class ChainModel:
    spec: DiffusionSpec
    window: tuple
    h: float
    x: np.ndarray          # node positions (KILL_INF nodes sit at +-inf)
    u: np.ndarray          # node scale values
    kind: np.ndarray       # int8 node kinds
    tau: np.ndarray        # mean holding time; 0 at terminal nodes
    p_right: np.ndarray
    nbr_left: np.ndarray
    nbr_right: np.ndarray
    det_target: np.ndarray
    node_mass: np.ndarray  # speed-measure mass attributed to each node
    piece_of: np.ndarray
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
    lo = np.full(u_targets.shape, x_lo, dtype=np.float64)
    hi = np.full(u_targets.shape, x_hi, dtype=np.float64)
    # grow infinite brackets until the scale value is straddled
    if math.isinf(x_lo):
        probe = (x_hi if math.isfinite(x_hi) else 0.0) - 1.0
        for _ in range(200):
            if float(evaluate(piece.scale, probe)) <= u_targets.min():
                break
            probe -= max(1.0, abs(probe))
        else:
            raise ChainBuildError("cannot bracket scale inversion toward -inf")
        lo[:] = probe
    if math.isinf(x_hi):
        probe = (x_lo if math.isfinite(x_lo) else 0.0) + 1.0
        for _ in range(200):
            if float(evaluate(piece.scale, probe)) >= u_targets.max():
                break
            probe += max(1.0, abs(probe))
        else:
            raise ChainBuildError("cannot bracket scale inversion toward +inf")
        hi[:] = probe
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
    def __init__(self, spec, window, h):
        self.spec = spec
        self.window = window
        self.h = h
        self.x = []
        self.u = []
        self.kind = []
        self.tau = []
        self.p_right = []
        self.left = []
        self.right = []
        self.det = []
        self.mass = []
        self.piece_of = []
        self.point_nodes = {}
        self.warnings = []

    def new_node(self, x, u, kind, piece_index):
        self.x.append(float(x))
        self.u.append(float(u))
        self.kind.append(kind)
        self.tau.append(0.0)
        self.p_right.append(0.5)
        self.left.append(-1)
        self.right.append(-1)
        self.det.append(-1)
        self.mass.append(0.0)
        self.piece_of.append(piece_index)
        return len(self.x) - 1

    def point_node(self, pos, kind, piece_index):
        if pos in self.point_nodes:
            return self.point_nodes[pos]
        i = self.new_node(pos, math.nan, kind, piece_index)
        self.point_nodes[pos] = i
        return i


def _atom_weight_at(piece, pos):
    return sum(w for p, w in piece.speed.atoms if p == pos)


def _regular_cells(piece, edges_x, edges_u, order):
    """Per-cell integrals A, B, M of the speed measure against the scale."""
    n = len(edges_x) - 1
    A = np.zeros(n)
    B = np.zeros(n)
    M = np.zeros(n)

    def rho_vec(y):
        return np.asarray(evaluate(piece.speed.density, y), dtype=np.float64)

    def s_vec(y):
        return np.asarray(evaluate(piece.scale, y), dtype=np.float64)

    fin_lo = 0 if math.isfinite(edges_x[0]) else 1
    fin_hi = n if math.isfinite(edges_x[-1]) else n - 1
    if fin_hi > fin_lo:
        fe = np.asarray(edges_x[fin_lo:fin_hi + 1])
        I1 = gauss_cells(lambda y: s_vec(y) * rho_vec(y), fe, order)
        Mm = gauss_cells(rho_vec, fe, order)
        ul = np.asarray(edges_u[fin_lo:fin_hi])
        uh = np.asarray(edges_u[fin_lo + 1:fin_hi + 1])
        A[fin_lo:fin_hi] = I1 - ul * Mm
        B[fin_lo:fin_hi] = uh * Mm - I1
        M[fin_lo:fin_hi] = Mm
    if fin_lo == 1:  # first cell stretches to -inf; only its A part is used
        u0 = edges_u[0]
        res = improper_integral(
            lambda y: (s_vec(y) - u0) * rho_vec(y),
            edges_x[1], -math.inf)
        if res.verdict != FINITE:
            raise ChainBuildError(
                "holding integral toward -inf does not converge; "
                "provide a finite window")
        A[0] = res.value
        B[0] = math.inf
        M[0] = math.inf
    if fin_hi == n - 1:  # last cell stretches to +inf; only its B part is used
        u1 = edges_u[-1]
        res = improper_integral(
            lambda y: (u1 - s_vec(y)) * rho_vec(y),
            edges_x[-2], math.inf)
        if res.verdict != FINITE:
            raise ChainBuildError(
                "holding integral toward +inf does not converge; "
                "provide a finite window")
        B[-1] = res.value
        A[-1] = math.inf
        M[-1] = math.inf
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
        if math.isfinite(M[j]):
            M[j] += w
    return A, B, M


def _end_scale(piece, i, side, cut, end, ana):
    """Scale value at one end of the simulated range, or a build error."""
    word = "-inf" if side == "a" else "+inf"
    if math.isinf(end):
        if not math.isfinite(ana.scale_limit) or ana.approachable != YES:
            raise ChainBuildError(
                f"piece {i}: window reaches {word} but the end is not "
                f"approachable with bounded scale; provide a finite window")
        return ana.scale_limit
    if cut:
        return float(evaluate(piece.scale, end))
    if ana.role in (INCLUDED_SHUNT, GLUE_TO_NEIGHBOR, EXIT):
        return ana.scale_limit
    raise ChainBuildError(
        f"piece {i}: endpoint {end} is inside the window but cannot be "
        f"reached from inside (role {ana.role}); shrink the window to "
        f"exclude it")


def _build_regular(builder, i, piece, profile):
    (w_lo, w_hi), h = builder.window, builder.h
    lo = max(piece.a, w_lo)
    hi = min(piece.b, w_hi)
    if hi <= lo:
        return
    left_cut = w_lo >= piece.a
    right_cut = w_hi <= piece.b
    ana_a = profile[(i, "a")]
    ana_b = profile[(i, "b")]
    u_lo = _end_scale(piece, i, "a", left_cut, lo, ana_a)
    u_hi = _end_scale(piece, i, "b", right_cut, hi, ana_b)

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
        x_nodes[1:-1] = _invert_scale(
            piece, u_nodes[1:-1],
            lo if math.isfinite(lo) else -math.inf,
            hi if math.isfinite(hi) else math.inf)

    # boundary nodes
    if left_cut and math.isfinite(lo):
        nid_lo = builder.new_node(lo, u_lo, KILL_WINDOW, i)
    elif math.isinf(lo):
        nid_lo = builder.new_node(lo, u_lo, KILL_INF, i)
    elif ana_a.role == EXIT:
        nid_lo = builder.point_node(lo, TRAP_NODE, i - 1)
    else:
        nid_lo = builder.point_node(lo, DET, i - 1)
    if right_cut and math.isfinite(hi):
        nid_hi = builder.new_node(hi, u_hi, KILL_WINDOW, i)
    elif math.isinf(hi):
        nid_hi = builder.new_node(hi, u_hi, KILL_INF, i)
    elif ana_b.role == EXIT:
        nid_hi = builder.point_node(hi, TRAP_NODE, i + 1)
    else:
        nid_hi = builder.point_node(hi, DET, i + 1)
    builder.u[nid_lo] = u_lo
    builder.u[nid_hi] = u_hi

    interior = [builder.new_node(x_nodes[k], u_nodes[k], WALK, i)
                for k in range(1, n_cells)]
    ids = [nid_lo] + interior + [nid_hi]
    for a, b in zip(ids, ids[1:]):
        builder.right[a] = b if builder.right[a] == -1 else builder.right[a]
        builder.left[b] = a if builder.left[b] == -1 else builder.left[b]

    A, B, M = _regular_cells(piece, list(x_nodes), list(u_nodes), _GAUSS_ORDER)
    A8, B8, _ = _regular_cells(piece, list(x_nodes), list(u_nodes),
                               _CHECK_ORDER)
    with np.errstate(invalid="ignore"):
        ref = np.maximum(np.abs(A), np.abs(B))
        da = np.abs(A - A8)
        db = np.abs(B - B8)
        fin = np.isfinite(ref) & (ref > 0)
        rel = 0.0
        if fin.any():
            rel = float(np.max((np.maximum(da, db))[fin] / ref[fin]))
    if rel > 1e-6:
        builder.warnings.append(
            f"piece {i}: holding-time quadrature differs by {rel:.2e} between "
            f"orders {_GAUSS_ORDER} and {_CHECK_ORDER}; the speed density may "
            f"be rough at this h")

    if n_cells > 1:
        u = u_nodes
        dtot = u[2:] - u[:-2]
        tau_int = (A[:-1] * (u[2:] - u[1:-1]) + B[1:] * (u[1:-1] - u[:-2])) / dtot
        pr_int = (u[1:-1] - u[:-2]) / dtot
        for k, nid in enumerate(interior):
            builder.tau[nid] = float(tau_int[k])
            builder.p_right[nid] = float(pr_int[k])
            ml = M[k] if math.isfinite(M[k]) else 0.0
            mr = M[k + 1] if math.isfinite(M[k + 1]) else 0.0
            builder.mass[nid] = 0.5 * (ml + mr)

    # entry dynamics at included shunt endpoints (this piece is the open side)
    if not (left_cut or math.isinf(lo)) and ana_a.role == INCLUDED_SHUNT:
        builder.kind[nid_lo] = DET
        builder.det[nid_lo] = ids[1]
        builder.tau[nid_lo] = float(B[0])
        builder.mass[nid_lo] += _atom_weight_at(piece, lo)
    if not (right_cut or math.isinf(hi)) and ana_b.role == INCLUDED_SHUNT:
        builder.kind[nid_hi] = DET
        builder.det[nid_hi] = ids[-2]
        builder.tau[nid_hi] = float(A[-1])
        builder.mass[nid_hi] += _atom_weight_at(piece, hi)


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
    up_cut = (w_lo >= piece.a) if down_right else (w_hi <= piece.b)
    down_cut = (w_hi <= piece.b) if down_right else (w_lo >= piece.a)
    up_end, down_end = (lo, hi) if down_right else (hi, lo)

    if down_cut:
        cap = builder.new_node(down_end, math.nan, KILL_WINDOW, i)
    else:
        # downstream piece endpoint: a singular point by the layout rules
        cap = builder.point_node(down_end, DET, i + 1 if down_right else i - 1)
    # body nodes walk downstream; the upstream edge node exists only when
    # the window cut it open (nothing ever arrives there, but paths may start)
    inner = list(xs[1:-1])
    up_positions = ([up_end] if up_cut else []) + (inner if down_right
                                                  else list(reversed(inner)))
    body = [builder.new_node(x, math.nan, DET, i) for x in up_positions]
    hop = body[1:] + [cap]
    for nid, target in zip(body, hop):
        builder.tau[nid] = h_eff
        builder.det[nid] = target

    # the upstream singular point, when present, feeds the first body node
    if not up_cut:
        pn = builder.point_nodes.get(up_end)
        if pn is not None and builder.kind[pn] == DET and builder.det[pn] == -1:
            first = body[0] if body else cap
            builder.det[pn] = first
            builder.tau[pn] = abs(builder.x[first] - up_end) if body else h_eff


def build_chain(spec: DiffusionSpec, window, h: float) -> ChainModel:
    """Discretize the part of the line inside the window."""
    if not (h > 0):
        raise DomainError("h must be positive")
    w_lo, w_hi = float(window[0]), float(window[1])
    if not (w_lo < w_hi):
        raise DomainError("window must be an interval (lo, hi)")
    profile = boundary_profile(spec)
    builder = _Builder(spec, (w_lo, w_hi), h)

    # singular points strictly inside the window get shared nodes first
    for i, p in enumerate(spec.pieces):
        if p.is_point and w_lo < p.x < w_hi:
            builder.point_node(p.x, TRAP_NODE if p.point_class == TRAP else DET, i)

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
    movable = kind <= DET
    if movable.any():
        bad_tau = movable & ~((tau > 0) & np.isfinite(tau))
        if bad_tau.any():
            j = int(np.nonzero(bad_tau)[0][0])
            raise ChainBuildError(
                f"degenerate holding time {tau[j]} at node x={builder.x[j]}; "
                f"the speed measure may vanish or blow up there")
    model = ChainModel(
        spec, (w_lo, w_hi), h,
        np.asarray(builder.x), np.asarray(builder.u), kind, tau,
        np.asarray(builder.p_right), np.asarray(builder.left, dtype=np.int64),
        np.asarray(builder.right, dtype=np.int64), det,
        np.asarray(builder.mass), np.asarray(builder.piece_of, dtype=np.int64),
        tuple(builder.warnings))
    return model


# ---------------------------------------------------------------------------
# the engine


def _step_cap(chain, t_max, exponential):
    """Steps after which a replication stops as if the horizon had come.
    Deterministic holding times add at least min_tau per step, so their
    cap is never reached; exponential ones can be arbitrarily short."""
    if exponential:
        return 10_000_000
    min_tau = chain.min_tau
    return int(t_max / min_tau) + 2 if math.isfinite(min_tau) else 1


def _warn_capped(count, cap):
    warnings.warn(
        f"{count} replication(s) stopped at the step cap ({cap}) before "
        f"t_max; they are reported alive at t_max", RuntimeWarning,
        stacklevel=4)


def _walk(chain, starts, keys, t_max, mode, exponential_holding, target_node,
          trace=None):
    """The engine: replication r starts at starts[r] and reads the counter
    stream keys[r].  Returns arrays final_node, final_time, status, hit.

    With a trace (an empty list) and one start, the list receives two
    arrays: the times and the nodes of that replication at its start and
    after each of its moves.
    """
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}")
    n_rep = len(starts)
    # per-node tables, so the loop body does not branch on node kinds:
    # the status a replication ends with at a node (RUNNING to move on),
    # whether it keeps its clock there, its holding time (inf where it
    # ends, so the horizon test catches it) and where each coin side leads
    kind = chain.kind
    end_code = np.zeros(chain.n_nodes, dtype=np.int8)
    end_code[kind == TRAP_NODE] = ABSORBED_TRAP
    end_code[kind == KILL_WINDOW] = KILLED_WINDOW
    end_code[kind == KILL_INF] = DEAD_INF
    keeps_time = end_code != RUNNING
    if mode != MODE_KILLED:
        keeps_time &= kind != TRAP_NODE
    if target_node >= 0:
        end_code[target_node] = ALIVE
        keeps_time[target_node] = True
    moves = end_code == RUNNING
    tau_of = np.where(moves, chain.tau, np.inf)
    random_tau = moves & (kind == WALK) & exponential_holding
    det = kind == DET
    go_left = np.where(det, chain.det_target, chain.nbr_left)
    go_right = np.where(det, chain.det_target, chain.nbr_right)
    p_right = np.where(det, 2.0, chain.p_right)  # DET nodes ignore the coin
    cap = _step_cap(chain, t_max, exponential_holding)

    final_node = np.empty(n_rep, dtype=np.int64)
    final_time = np.empty(n_rep)
    status = np.empty(n_rep, dtype=np.int8)
    hit = np.zeros(n_rep, dtype=bool)
    # the active set: output index, counter key, node, clock and row of
    # uniforms of every replication still running; each has taken exactly
    # k steps.  Step k reads counter 2k for its coin and 2k+1 for its
    # exponential holding time.  Uniforms come in blocks of the next few
    # steps of the whole active set, so a small active set pays the hash's
    # per-call cost once per block rather than once per step.
    idx = np.arange(n_rep)
    key = keys
    cur = np.asarray(starts, dtype=np.int64)
    t = np.zeros(n_rep)
    if trace is not None:  # times and nodes from the start; doubled when full
        path_t, path_node = np.zeros(256), np.full(256, cur[0])
    per_step = 2 if exponential_holding else 1
    k = j = n_block = 0
    while idx.size:
        if j == n_block:
            n_block = min(max(_BLOCK // idx.size, 1), 256)
            counters = np.arange(2 * k, 2 * (k + n_block), 2 // per_step)
            block = _keyed_uniform(key[:, None], counters)
            row = np.arange(idx.size)
            j = 0
        tau = tau_of[cur]
        if exponential_holding:
            uh = block[row, 2 * j + 1]
            tau = tau * np.where(random_tau[cur], -np.log1p(-uh), 1.0)
        t_new = t + tau
        ends = t_new >= t_max
        if ends.any():
            sel, ce = idx[ends], cur[ends]
            code = end_code[ce]
            final_node[sel] = ce
            final_time[sel] = np.where(keeps_time[ce], t[ends], t_max)
            status[sel] = np.where(code == RUNNING, ALIVE, code)
            hit[sel] = ce == target_node
            stay = ~ends
            idx, key, cur, row = idx[stay], key[stay], cur[stay], row[stay]
            t_new = t_new[stay]
        t = t_new
        u = block[row, per_step * j]
        cur = np.where(u < p_right[cur], go_right[cur], go_left[cur])
        k += 1
        j += 1
        if trace is not None and idx.size:
            if k == path_t.size:
                path_t = np.concatenate([path_t, path_t])
                path_node = np.concatenate([path_node, path_node])
            path_t[k] = t[0]
            path_node[k] = cur[0]
        if k > cap and idx.size:
            final_node[idx] = cur
            final_time[idx] = t_max
            status[idx] = ALIVE
            _warn_capped(idx.size, cap)
            break
    if trace is not None:
        n_path = k + 1 if idx.size else k  # the last step ended it, no move
        trace.extend((path_t[:n_path], path_node[:n_path]))
    return {"final_node": final_node, "final_time": final_time,
            "status": status, "hit": hit}


def run(chain: ChainModel, x0=None, t_max: float = 1.0, n_rep: int = 1000,
        seed: int = 0, n_jobs: int = 1, mode: str = MODE_FULL,
        exponential_holding: bool = False, target=None, starts=None) -> dict:
    """Run replications; returns arrays final_node, final_time, status, hit.

    Replication r always consumes the counter stream (seed, r, .), so
    its outcome does not depend on the other replications.  ``n_jobs``
    must be at least 1 and changes neither the numbers nor the threads
    used; it stays because the CLI's ``--jobs`` and the benchmark pass it.

    A replication ends when it reaches the target (status alive, hit
    set, the hitting time kept), a terminal node, or the horizon t_max
    (status alive at t_max).  Window edges and infinite endpoints keep
    the time they were reached.  A trap keeps its absorption time in
    ``killed_at_traps`` mode; in ``full`` and ``part_on_window`` modes the
    path stays at the trap, so its time is t_max.  ``part_on_window`` is
    the process killed only on leaving the window.  Replications stopped
    by the step cap (reachable only with exponential holding) end alive
    at t_max, with a RuntimeWarning giving their count.
    """
    if n_jobs < 1:
        raise DomainError("n_jobs must be at least 1")
    if starts is None:
        if x0 is None:
            raise DomainError("provide x0 or starts")
        starts = np.full(n_rep, chain.node_at(float(x0)), dtype=np.int64)
    else:
        starts = np.asarray(starts, dtype=np.int64)
        n_rep = len(starts)
    target_node = chain.node_at(float(target)) if target is not None else -1
    return _walk(chain, starts, _rep_key(seed, np.arange(n_rep)), t_max, mode,
                 exponential_holding, target_node)


@dataclass
class PathResult:
    times: np.ndarray
    positions: np.ndarray
    status: str

    def as_rows(self):
        for t, x in zip(self.times, self.positions):
            yield t, x


def simulate_path(chain: ChainModel, x0: float, t_max: float, seed: int = 0,
                  rep: int = 0, mode: str = MODE_FULL,
                  exponential_holding: bool = False) -> PathResult:
    """Replication ``rep`` of ``run`` with its trajectory: the start at
    time 0, one (time, position) per move, and the final time and
    position when the path ends after its last move (at the horizon, held
    at a trap, or at the step cap)."""
    trace = []
    out = _walk(chain, [chain.node_at(float(x0))], _rep_key(seed, [rep]),
                t_max, mode, exponential_holding, -1, trace)
    times, nodes = trace
    if out["final_time"][0] > times[-1]:
        times = np.append(times, out["final_time"][0])
        nodes = np.append(nodes, out["final_node"][0])
    return PathResult(times, chain.x[nodes],
                      STATUS_NAMES[int(out["status"][0])])


# ---------------------------------------------------------------------------
# estimators


def _wilson(hits: int, n: int, z: float = 1.959963984540054):
    if n == 0:
        return 0.0, 0.0, 1.0
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return p, max(center - half, 0.0), min(center + half, 1.0)


def estimate_hitting(chain: ChainModel, x0: float, target: float,
                     t_max: float, n_rep: int, seed: int = 0,
                     n_jobs: int = 1, mode: str = MODE_KILLED,
                     exponential_holding: bool = False) -> dict:
    """Probability of visiting the target position before the horizon."""
    res = run(chain, x0=x0, t_max=t_max, n_rep=n_rep, seed=seed,
              n_jobs=n_jobs, mode=mode,
              exponential_holding=exponential_holding, target=target)
    hits = int(res["hit"].sum())
    p, lo, hi = _wilson(hits, n_rep)
    counts = {name: int((res["status"] == code).sum())
              for code, name in STATUS_NAMES.items()}
    return {"estimate": p, "ci_low": lo, "ci_high": hi, "hits": hits,
            "n_rep": n_rep, "x0": x0, "target": target, "t_max": t_max,
            "seed": seed, "status_counts": counts}


def analytic_hitting(spec: DiffusionSpec, x0: float, a: float, c: float) -> float:
    """Scale-linear probability of hitting c before a from x0 in (a, c)."""
    if not (a < x0 < c):
        raise DomainError("need a < x0 < c")
    i, piece = spec.piece_at(x0)
    if piece.kind != REGULAR:
        raise DomainError("analytic hitting needs a regular piece")
    sa = float(evaluate(piece.scale, a))
    sc = float(evaluate(piece.scale, c))
    s0 = float(evaluate(piece.scale, x0))
    return (s0 - sa) / (sc - sa)


def _lebesgue_node_weights(chain: ChainModel) -> np.ndarray:
    """Half the x distance between the neighbours of each walk node."""
    w = np.zeros(chain.n_nodes)
    i = np.nonzero((chain.kind == WALK) & (chain.nbr_left >= 0)
                   & (chain.nbr_right >= 0))[0]
    xl = chain.x[chain.nbr_left[i]]
    xr = chain.x[chain.nbr_right[i]]
    fin = np.isfinite(xl) & np.isfinite(xr)
    w[i[fin]] = 0.5 * (xr[fin] - xl[fin])
    return w


def _at_nodes(fn, x, nodes):
    """fn(x[node]) for each entry of nodes, calling fn once per distinct
    node."""
    distinct, inverse = np.unique(nodes, return_inverse=True)
    vals = np.asarray([fn(float(v)) for v in x[distinct]], dtype=np.float64)
    return vals[inverse]


def estimate_symmetry_defect(chain: ChainModel, f, g, t_max: float,
                             n_rep: int, seed: int = 0, n_jobs: int = 1,
                             mode: str = MODE_FULL, weights=None) -> dict:
    """Monte Carlo defect  integral of f(x) E_x g(X_t) - g(x) E_x f(X_t)
    against the node weights.

    Zero for every f, g exactly when the weighting measure symmetrizes
    the process.  Start nodes are drawn proportionally to the weights;
    each replication contributes  W (f(X_0) g(X_t) - f(X_t) g(X_0))
    with W the total weight, evaluated on a single common path.
    Functions count as zero after killing.
    """
    if weights is None:
        w = chain.node_mass.copy()
    elif isinstance(weights, str) and weights == "lebesgue":
        w = _lebesgue_node_weights(chain)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (chain.n_nodes,):
            raise DomainError("weights must give one value per node")
    total = float(w.sum())
    if not (total > 0) or not math.isfinite(total):
        raise DomainError("node weights must have positive finite total")
    cum = np.cumsum(w)
    u0 = _uniform(seed, np.arange(n_rep, dtype=np.uint64), _STEP_START)
    starts = np.searchsorted(cum, u0 * total, side="right")
    starts = np.minimum(starts, chain.n_nodes - 1).astype(np.int64)
    res = run(chain, starts=starts, t_max=t_max, seed=seed, n_jobs=n_jobs,
              mode=mode)
    if mode == MODE_KILLED:
        live = res["status"] == ALIVE
    else:
        live = (res["status"] == ALIVE) | (res["status"] == ABSORBED_TRAP)
    f0 = _at_nodes(f, chain.x, starts)
    g0 = _at_nodes(g, chain.x, starts)
    # killed paths count as zero; f and g never see their nodes
    ends = res["final_node"][live]
    fT = np.zeros(n_rep)
    gT = np.zeros(n_rep)
    fT[live] = _at_nodes(f, chain.x, ends)
    gT[live] = _at_nodes(g, chain.x, ends)
    d = total * (f0 * gT - fT * g0)
    mean = float(np.mean(d))
    sd = float(np.std(d, ddof=1)) if n_rep > 1 else 0.0
    half = 1.959963984540054 * sd / math.sqrt(n_rep) if n_rep else 0.0
    return {"mean": mean, "sd": sd, "ci_low": mean - half,
            "ci_high": mean + half, "n_rep": n_rep, "total_weight": total,
            "t_max": t_max, "seed": seed, "mode": mode}
