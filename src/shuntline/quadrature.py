"""Adaptive Gauss-Kronrod cells and improper integrals with an explicit
divergence policy: the package's one quadrature rule.

``cell_quad`` integrates over one finite cell with the 21-point Kronrod /
10-point Gauss pair of QUADPACK (Piessens et al., 1983).  The integrand
is called once per round, on one flat array holding the 21 nodes of
every interval of that round, so it must accept and return numpy
arrays.  Each interval's error is estimated the QUADPACK way, from the
Kronrod-Gauss difference scaled against the spread of the integrand.
While the summed error exceeds ``rel_tol * |total|``, a round bisects the
intervals with the largest errors (the fewest whose removal leaves at
most half the allowed error), never holding more than ``LIMIT`` (200)
intervals.  There is no epsilon extrapolation.  A cell still above its
tolerance at the limit raises ``QuadratureError``; it never returns an
unconverged value.  Non-finite integrand values are returned at once as
a non-finite total, for the caller to read as divergence.

Integrals that may blow up at an interval end are summed over dyadic
shells approaching that end.  The policy below decides between a finite
value, a declared divergence and an honest "undetermined":

* converged: the last two shell contributions are below ``rel_tol``
  relative to the running sum;
* infinite: the running sum passes ``cap`` (1e12), or the shell
  contributions stop decaying (ratio >= ``stall_ratio`` for
  ``growth_runs`` (8) consecutive shells), which catches power and
  logarithmic divergence alike.  There is no rule on the growth of the
  running sum: a sum that grows by 5 % a shell may still converge (a
  shell ratio of 0.95 does), and such a rule read the size of the sum,
  so a positive factor on the integrand changed its verdict;
* undetermined: shells are exhausted without any rule firing, a shell
  raises (a ``QuadratureError`` or an evaluation error, named in the
  note), or a significant shell flips sign after the contributions had
  decayed.
  All intended integrands are single-signed, so a late sign flip means
  the integrand was evaluated below its numerical resolution (typically
  cancellation against a truncated limit constant) and any further
  arithmetic would launder noise into a verdict.

``_first_rounds`` sums the first rounds of many cells, from one call of
the integrand, in one stacked product, one matrix product per cell, so
each cell gets bit for bit the sums of its own ``cell_quad``.  The chain
builder's holding-time cells are such first rounds; so is each block of
16 shells, whose shells are accepted together by ``cell_quad``'s first
test.  Only a shell that misses its tolerance there goes on to the
bisection rounds, one call each, and only once the policy reaches it.

``improper_integrals`` runs that policy from several anchors toward one
endpoint at once: each block's edges, for every anchor, come from one
vectorised step over exact powers of two, and the block's first rounds,
for every anchor still running, from one integrand call.  Each anchor's
policy reads its shells as Python floats and stops at the same shell,
with the same note, as alone.  A block on which the integrand raises is
redone one ``cell_quad`` per shell as the policies reach them, so the
error is reported at the first shell that raises it, and only to the
anchor whose shell it is.  ``improper_integral`` is the one-anchor case.

``span_integrals`` is the one way a density is integrated over
intervals: shells only toward an infinite end or one its caller flags (a
piece endpoint), one adaptive cell everywhere else, all to ``MASS_TOL``.
Its plain cells share one integrand call, its shells one call per block
per endpoint, and a repeated span is integrated once; ``span_integral``
is the one-span case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

__all__ = ["IntegralResult", "improper_integral", "improper_integrals",
           "span_integral", "span_integrals", "cell_quad"]

FINITE = "finite"
INFINITE = "infinite"
UNDETERMINED = "undetermined"

CAP = 1e12
GROWTH_RUNS = 8
STALL_RATIO = 0.9999
MAX_SHELLS = 160
_BLOCK = 16  # dyadic shells per integrand call of improper_integral
MASS_TOL = 1e-8  # rel_tol of every span_integral


@dataclass(frozen=True)
class IntegralResult:
    verdict: str  # finite / infinite / undetermined
    value: float
    shells: int
    note: str = ""


# QUADPACK qk21: Kronrod abscissae from the outermost inward, then the
# center; the odd-indexed ones are the 10-point Gauss abscissae.
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208977211460, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])

# the 21 nodes on [-1, 1]; the Kronrod weights and the Gauss weights
# spread onto the same nodes (zero at the Kronrod-only ones)
KRONROD_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
KRONROD_WEIGHTS = np.concatenate([_WK[:-1], _WK[::-1]])
GAUSS_WEIGHTS = np.zeros(21)
GAUSS_WEIGHTS[1:10:2] = _WG
GAUSS_WEIGHTS[11:20:2] = _WG[::-1]
_KG = np.stack([KRONROD_WEIGHTS, GAUSS_WEIGHTS], axis=1)

LIMIT = 200
_ROUNDOFF = 50.0 * np.finfo(float).eps


def _gk21_nodes(lo, hi):
    """Half-widths of the intervals [lo, hi] and their 21 nodes, one row
    per interval."""
    half = 0.5 * (hi - lo)
    return half, (0.5 * (lo + hi))[:, None] + half[:, None] * KRONROD_NODES


def _gk21_sums(f, half):
    """GK21 integrals, error estimates and integrals of |fn| from the
    values f of fn at the nodes, one row (the last axis) per interval.

    The error is QUADPACK's: the Kronrod-Gauss difference e becomes
    asc * min(1, (200 e / asc)^1.5), asc the integral of |fn - mean|,
    floored at 50 eps times the integral of |fn|.  Where asc vanishes the
    floor alone decides.  The matrix products of an (n, 21) f are not
    row-stable: a row's sums depend on how many rows f has.  A stack of
    lone rows, f of shape (n, 1, 21) with half of shape (n, 1), is summed
    one product per row, so each row gets the sums it would get alone.
    Run under np.errstate (cell_quad does).
    """
    k_g = f @ _KG
    res_k = k_g[..., 0]
    res_abs = np.abs(f) @ KRONROD_WEIGHTS
    res_asc = np.abs(f - 0.5 * res_k[..., None]) @ KRONROD_WEIGHTS
    ratio = np.fmin(200.0 * np.abs(res_k - k_g[..., 1]) / res_asc, 1.0)
    scale = np.abs(half)
    err = np.maximum(res_asc * ratio ** 1.5, _ROUNDOFF * res_abs) * scale
    return res_k * half, err, res_abs * scale


def _fn_at(fn, pts):
    """fn on the flattened nodes, shaped like them (k rows: a k axis first)."""
    f = np.asarray(fn(pts.ravel()), dtype=float)
    return f.reshape(f.shape[:-1] + pts.shape)


def _gk21(fn, lo, hi):
    """``_gk21_sums`` on the intervals [lo, hi], from one call of fn on
    all their nodes."""
    half, pts = _gk21_nodes(lo, hi)
    return _gk21_sums(_fn_at(fn, pts), half)


def _first_rounds(fn, lo, hi):
    """cell_quad's first round (val, err, mag) on each cell [lo, hi], from
    one call of fn on all their nodes.  Each cell is summed as a lone row
    of a stack (see _gk21_sums), so it gets the bits of its own cell_quad
    whatever the number of cells.  For k integrands (``_fn_at``) each sum
    has shape (k, cells).  Run under np.errstate."""
    half, pts = _gk21_nodes(lo, hi)
    return tuple(a[..., 0] for a in
                 _gk21_sums(_fn_at(fn, pts)[..., None, :], half[:, None]))


def cell_quad(fn, a, b, rel_tol=1e-8):
    """Adaptive GK21 integral of fn over the finite cell [a, b].

    fn maps an ndarray of positions to an ndarray of values; numpy
    floating-point warnings are silenced while it runs, as they are for
    Python floats.  The tolerance never drops below the roundoff floor
    50 eps * integral of |fn|, so a cell whose integral cancels to about
    zero converges instead of bisecting noise.  Raises QuadratureError
    if the summed error estimate is still above the tolerance with
    LIMIT intervals in use.
    """
    with np.errstate(all="ignore"):
        first = _gk21(fn, np.array([float(a)]), np.array([float(b)]))
        return _bisect(fn, a, b, first, rel_tol)


def _bisect(fn, a, b, first, rel_tol):
    """cell_quad's rounds on [a, b], from the sums (val, err, mag) of its
    first round.  Run under np.errstate."""
    lo = np.array([float(a)])
    hi = np.array([float(b)])
    val, err, mag = first
    while True:
        total = val.sum()
        if not math.isfinite(total):
            return float(total)
        tol = max(rel_tol * abs(total), _ROUNDOFF * mag.sum())
        err_sum = err.sum()
        if err_sum <= tol:
            return float(total)
        room = LIMIT - len(lo)
        if room <= 0:
            raise QuadratureError(
                f"cell [{a!r}, {b!r}]: estimated error {err_sum:.3g} above "
                f"rel_tol {rel_tol:g} of {total:.6g} with {LIMIT} subintervals")
        # bisect the fewest largest-error intervals that leave at most
        # half the allowed error behind
        order = np.argsort(err)[::-1]
        left_over = err_sum - np.cumsum(err[order])
        n_split = min(int(np.searchsorted(-left_over, -0.5 * tol)) + 1,
                      room, len(lo))
        split, keep = order[:n_split], order[n_split:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_val, new_err, new_mag = _gk21(fn, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
        mag = np.concatenate([mag[keep], new_mag])


# 2^k - 1 and 2^-k for k = 0, 1, ..., MAX_SHELLS + 1, exact: the steps
# from the anchor to the edges of the dyadic shells
_STEP_OUT = np.ldexp(1.0, np.arange(MAX_SHELLS + 2)) - 1.0
_STEP_IN = np.ldexp(1.0, -np.arange(MAX_SHELLS + 2))
_STEP_OUT_NEXT, _STEP_IN_NEXT = _STEP_OUT[1:], _STEP_IN[1:]


def _shell_edges(anchor, endpoint, k):
    """Edges (lo, hi) of dyadic shell k, counted from the anchor toward
    the endpoint.  k may be an int, an int array or a slice of shells,
    and the anchor a column of anchors; they broadcast."""
    if math.isinf(endpoint):
        if endpoint > 0:
            return anchor + _STEP_OUT[k], anchor + _STEP_OUT_NEXT[k]
        return anchor - _STEP_OUT_NEXT[k], anchor - _STEP_OUT[k]
    width = endpoint - anchor
    near = endpoint - width * _STEP_IN_NEXT[k]
    far = endpoint - width * _STEP_IN[k]
    # far <= near exactly when width > 0 (and they tie when width == 0)
    return np.minimum(far, near), np.maximum(far, near)


def _cells(fn, lo, hi, rel_tol):
    """cell_quad(fn, lo[i], hi[i], rel_tol) for the cells of the lists lo
    and hi, from one call of fn on all their first-round nodes.  Returns
    the list of the values cell_quad's first test accepts as they are,
    None where a cell needs bisection, and refine(i): cell i's value or
    the exception it raised.  If the call raises, every entry is None and
    refine is cell_quad.  Run under np.errstate."""
    try:
        val, err, mag = _first_rounds(fn, np.array(lo, dtype=float),
                                      np.array(hi, dtype=float))
    except Exception:
        val = None
        values = [None] * len(lo)
    else:
        # a lone row's val.sum() is val + 0.0: -0.0 becomes 0.0
        total = val + 0.0
        tol = np.maximum(rel_tol * np.abs(total), _ROUNDOFF * mag)
        values = total.tolist()
        for i in np.flatnonzero(~(err <= tol)).tolist():
            if math.isfinite(values[i]):
                values[i] = None

    def refine(i):
        try:
            if val is None:
                return cell_quad(fn, lo[i], hi[i], rel_tol)
            first = val[i:i + 1], err[i:i + 1], mag[i:i + 1]
            return _bisect(fn, lo[i], hi[i], first, rel_tol)
        except Exception as exc:
            return exc

    return values, refine


def _policy(fn, anchor, endpoint, rel_tol):
    """The stopping rules of improper_integral over its shells, as a
    generator.  Each send is one block of shells, (values, start, stop,
    refine): the shell values are values[start:stop], None marking a
    shell that refine(i) computes.  An empty block means no shell is
    left.  Returns the IntegralResult (StopIteration.value) once a rule
    fires."""
    total = 0.0
    prev_size = 0.0  # |contribution| of the previous shell
    small_run = 0
    stall_run = 0
    lead_sign = 0.0
    peak = 0.0
    decayed = False
    k = 0
    values, start, stop, refine = yield
    while True:
        for i in range(start, stop):
            contrib = values[i]
            if contrib is None:
                contrib = refine(i)
                if isinstance(contrib, Exception):
                    return IntegralResult(UNDETERMINED, total, k,
                                          f"quadrature failure: {contrib}")
            if not math.isfinite(contrib):
                return IntegralResult(INFINITE, math.inf, k, "non-finite shell")
            total += contrib
            if abs(total) > CAP:
                return IntegralResult(INFINITE, math.inf, k, "cap exceeded")
            size = abs(contrib)
            if lead_sign == 0.0 and contrib != 0.0:
                lead_sign = math.copysign(1.0, contrib)
            if size > peak:
                peak = size
            if not decayed and peak > 0.0 and size <= peak / 10.0:
                decayed = True
            small = abs(total)
            small = rel_tol * (small if small > 1e-300 else 1e-300)
            if decayed and contrib * lead_sign < 0.0 and size > small:
                return IntegralResult(UNDETERMINED, total, k,
                                      "endpoint resolution exhausted")
            if prev_size > 0 and size >= STALL_RATIO * prev_size:
                stall_run += 1
                if stall_run >= GROWTH_RUNS and size > small:
                    return IntegralResult(INFINITE, math.inf, k,
                                          "non-decaying shells")
            else:
                stall_run = 0
            if size <= small:
                small_run += 1
                if small_run >= 2:
                    return IntegralResult(FINITE, total, k + 1)
            else:
                small_run = 0
            prev_size = size
            k += 1
        if start == stop or k == MAX_SHELLS:
            break
        values, start, stop, refine = yield
    if k < MAX_SHELLS:
        # shell width fell below float resolution
        if k and prev_size <= rel_tol * max(abs(total), 1e-300):
            return IntegralResult(FINITE, total, k,
                                  "width underflow, tail negligible")
        return IntegralResult(UNDETERMINED, total, k, "shell width underflow")
    # shells exhausted: try a geometric tail estimate
    if prev_size > 0:
        try:
            lo, hi = map(float, _shell_edges(anchor, endpoint, MAX_SHELLS))
            tail_ratio = abs(cell_quad(fn, lo, hi, min(rel_tol, 1e-8))) / prev_size
        except Exception:
            tail_ratio = 1.0
        if tail_ratio < 0.99:
            tail = prev_size * tail_ratio / (1.0 - tail_ratio)
            if tail <= 0.1 * max(abs(total), 1e-300):
                return IntegralResult(FINITE, total + math.copysign(tail, contrib),
                                      MAX_SHELLS, "geometric tail estimate")
    return IntegralResult(UNDETERMINED, total, MAX_SHELLS, "shells exhausted")


def _drive(fn, anchors, endpoint, rel_tol, consumers):
    """Feed consumer j (a primed generator, see _policy) the values of
    dyadic shells 0, 1, ... from anchors[j] toward the endpoint, each
    shell cell_quad at rel_tol, until it returns a result, up to
    MAX_SHELLS; an anchor's shells end before the first one too narrow
    for float resolution.  Each block of _BLOCK shells of every running
    consumer costs one integrand call (see _cells).  Returns the results,
    None for a consumer that never returns one."""
    results = [None] * len(consumers)
    anchors = np.asarray(anchors, dtype=float)[:, None]
    running = list(range(len(consumers)))
    with np.errstate(all="ignore"):
        for first in range(0, MAX_SHELLS, _BLOCK):
            if not running:
                break
            block = slice(first, min(first + _BLOCK, MAX_SHELLS))
            size = block.stop - first
            lo, hi = _shell_edges(anchors, endpoint, block)
            valid = lo < hi
            counts = [size] * len(consumers) if valid.all() else \
                np.where(valid.all(axis=1), size, valid.argmin(axis=1)).tolist()
            lo, hi = lo.tolist(), hi.tolist()
            block_lo, block_hi, stops = [], [], []
            for j in running:
                block_lo += lo[j][:counts[j]]
                block_hi += hi[j][:counts[j]]
                stops.append(len(block_lo))
            values, refine = _cells(fn, block_lo, block_hi, rel_tol) \
                if block_lo else ([], None)
            start = 0
            for j, stop in zip(list(running), stops):
                try:
                    consumers[j].send((values, start, stop, refine))
                    if counts[j] < size:  # no shell is left
                        consumers[j].send((values, stop, stop, refine))
                except StopIteration as done:
                    results[j] = done.value
                    running.remove(j)
                start = stop
    return results


def improper_integrals(fn, anchors, endpoint, rel_tol=1e-6) -> list:
    """improper_integral(fn, anchor, endpoint, rel_tol) for each anchor,
    in order, from one integrand call per block of shells for all the
    anchors still running."""
    policies = [_policy(fn, a, endpoint, rel_tol) for a in anchors]
    for policy in policies:
        next(policy)
    return _drive(fn, anchors, endpoint, min(rel_tol, 1e-8), policies)


def improper_integral(fn, anchor, endpoint, rel_tol=1e-6) -> IntegralResult:
    """Integrate fn between anchor and endpoint, improper at the endpoint.

    fn must be integrable on every compact subinterval excluding the
    endpoint and must not change sign; a genuinely oscillating integrand
    will be reported undetermined once its shell contributions flip.
    """
    return improper_integrals(fn, [anchor], endpoint, rel_tol)[0]


def interior_point(lo, hi):
    """The midpoint, else 1 inside the one finite end, else 0."""
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    return lo + 1.0 if math.isfinite(lo) else hi - 1.0 if math.isfinite(hi) else 0.0


def span_integrals(fn, spans) -> list:
    """span_integral of fn over each (lo, hi, improper_lo, improper_hi) of
    spans, in order, as one batch: every plain cell from one integrand
    call (see _cells), the improper ends grouped by endpoint through
    improper_integrals.  A repeated span is integrated once.  A plain
    cell's exception (QuadratureError, an evaluation error) is returned
    in place of its result."""
    keys = [(lo, hi, bool(ilo or math.isinf(lo)), bool(ihi or math.isinf(hi)))
            for lo, hi, ilo, ihi in spans]
    out = {}
    plain = []
    improper = {}  # span -> (anchor, its improper ends)
    toward = {}    # improper end -> the anchors of its shells
    for key in dict.fromkeys(keys):
        lo, hi, ilo, ihi = key
        if not (ilo or ihi):
            plain.append(key)
            continue
        anchor = interior_point(lo, hi) if ilo and ihi else hi if ilo else lo
        ends = [e for e, flag in ((lo, ilo), (hi, ihi)) if flag]
        improper[key] = anchor, ends
        for end in ends:
            toward.setdefault(end, {})[anchor] = None
    if plain:
        with np.errstate(all="ignore"):
            values, refine = _cells(fn, [key[0] for key in plain],
                                    [key[1] for key in plain], MASS_TOL)
            for i, key in enumerate(plain):
                value = refine(i) if values[i] is None else values[i]
                if isinstance(value, Exception):
                    out[key] = value
                elif math.isfinite(value):
                    out[key] = IntegralResult(FINITE, value, 0)
                else:
                    out[key] = IntegralResult(INFINITE, math.inf, 0,
                                              "non-finite cell")
    shells = {}
    for end, anchors in toward.items():
        results = improper_integrals(fn, list(anchors), end, MASS_TOL)
        shells.update(((anchor, end), res) for anchor, res in zip(anchors, results))
    # the first end whose shells give no finite value decides
    for key, (anchor, ends) in improper.items():
        total, count = 0.0, 0
        for end in ends:
            res = shells[anchor, end]
            count += res.shells
            if res.verdict != FINITE:
                out[key] = IntegralResult(res.verdict, res.value, count,
                                          f"toward {end}: {res.note}")
                break
            total += res.value
        else:
            out[key] = IntegralResult(FINITE, total, count)
    return [out[key] for key in keys]


def span_integral(fn, lo, hi, improper_lo, improper_hi) -> IntegralResult:
    """Integral of fn over (lo, hi), to a relative tolerance of MASS_TOL.

    An end is improper when it is infinite or its flag is set.  With no
    improper end the span is one cell_quad, whose QuadratureError
    propagates.  Otherwise shells run toward each improper end, from the
    other end or, when both are improper, from interior_point(lo, hi);
    the first end whose shells give no finite value decides.
    """
    res = span_integrals(fn, [(lo, hi, improper_lo, improper_hi)])[0]
    if isinstance(res, Exception):
        raise res
    return res
