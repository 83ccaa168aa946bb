"""Shared fixtures: hand-built spec documents, a randomized generator, an
exact solve of the simulation chain, a one-step-at-a-time walker and a
counter of derivations.

The generator produces structurally valid specs only (closedness of the
one-way and trap label sets is respected by construction), drawing
scales and densities from a pool whose boundary integrals are cleanly
decidable.
"""

import collections
import contextlib
import math
import random
import re
import sys

import numpy as np
import pytest

from shuntline import parse_spec
from shuntline.simulate import (ABSORBED_TRAP, ALIVE, DEAD_INF, DET, KILL_INF,
                                KILL_WINDOW, KILLED_WINDOW, MODE_KILLED,
                                RUNNING, TRAP_NODE, WALK, _keyed_uniform)

SAFE_SCALES = ("x", "x/2", "2*x", "x^3 + x")
SAFE_DENSITIES = ("2", "1", "1 + x^2")
BREAKPOINT_POOL = (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)


def interval_doc(kind, a, b, rng=None):
    if kind == "regular_interval":
        return {"kind": kind, "a": a, "b": b,
                "scale": rng.choice(SAFE_SCALES) if rng else "x",
                "speed": {"density": rng.choice(SAFE_DENSITIES) if rng else "2"}}
    if kind == "shunt_segment":
        direction = rng.choice(("left", "right")) if rng else "right"
        return {"kind": kind, "a": a, "b": b, "direction": direction}
    return {"kind": kind, "a": a, "b": b}


def _allowed_point_classes(left_kind, left_dir, right_kind, right_dir):
    """Point classes compatible with the closure of the flanking material."""
    allowed = {"trap", "left_shunt", "right_shunt"}
    if left_kind == "trap_segment" or (left_kind == "shunt_segment"
                                       and left_dir == "right"):
        allowed &= {"trap", "right_shunt"}
    if right_kind == "trap_segment" or (right_kind == "shunt_segment"
                                        and right_dir == "left"):
        allowed &= {"trap", "left_shunt"}
    return sorted(allowed)


def random_spec_doc(seed):
    """A structurally valid random spec document."""
    rng = random.Random(seed)
    n_cuts = rng.randint(0, 3)
    cuts = sorted(rng.sample(BREAKPOINT_POOL, n_cuts))
    edges = [float("-inf")] + [float(c) for c in cuts] + [float("inf")]
    kinds = [rng.choice(("regular_interval", "regular_interval",
                         "shunt_segment", "trap_segment"))
             for _ in range(len(edges) - 1)]
    pieces = []
    prev = None
    for i, kind in enumerate(kinds):
        a, b = edges[i], edges[i + 1]
        doc = interval_doc(kind, "-inf" if a == float("-inf") else a,
                           "inf" if b == float("inf") else b, rng)
        if prev is not None:
            classes = _allowed_point_classes(
                prev.get("kind"), prev.get("direction"),
                doc.get("kind"), doc.get("direction"))
            pieces.append({"kind": "singular_point", "x": a,
                           "class": rng.choice(classes)})
        pieces.append(doc)
        prev = doc
    return {"name": f"random-{seed}", "pieces": pieces}


def spec_from(pieces, name="fixture"):
    return parse_spec({"name": name, "pieces": pieces})


def mirrored_doc(doc):
    """The spec reflected through the origin (x -> -x).

    Left and right shunts swap, scales negate and reverse, endpoint
    hints swap sides.  Verdicts must be invariant under this map.
    """
    out = {"name": doc["name"] + "-mirror", "pieces": []}
    for p in reversed(doc["pieces"]):
        q = dict(p)
        if p["kind"] == "singular_point":
            q["x"] = -_num(p["x"])
            q["class"] = _swap_class(p["class"])
        else:
            q["a"], q["b"] = -_num(p["b"]), -_num(p["a"])
            if p["kind"] == "shunt_segment":
                q["direction"] = "left" if p["direction"] == "right" else "right"
            if p["kind"] == "regular_interval":
                q["scale"] = f"-({_sub_neg(p['scale'])})"
                speed = dict(p["speed"])
                speed["density"] = _sub_neg(speed["density"])
                if "atoms" in speed:
                    speed["atoms"] = [{"at": -_num(a["at"]), "weight": a["weight"]}
                                     for a in speed["atoms"]]
                if "hints" in speed:
                    hints = dict(speed["hints"])
                    speed["hints"] = {}
                    if "a" in hints:
                        speed["hints"]["b"] = hints["a"]
                    if "b" in hints:
                        speed["hints"]["a"] = hints["b"]
                q["speed"] = speed
        out["pieces"].append(q)
    return out


def _num(v):
    if isinstance(v, str):
        s = v.strip()
        if s in ("-inf",):
            return float("-inf")
        if s in ("inf", "+inf"):
            return float("inf")
        return float(s)
    return float(v)


def _sub_neg(expr_src):
    return "(%s)" % re.sub(r"\bx\b", "(-x)", expr_src)


def _swap_class(cls):
    return {"left_shunt": "right_shunt", "right_shunt": "left_shunt",
            "trap": "trap"}[cls]


# -- frequently used hand specs ---------------------------------------------


@pytest.fixture
def bounded_unit_doc():
    """Trap-padded unit diffusion on (0, 2); both ends absorb."""
    return {"name": "bounded-unit", "pieces": [
        {"kind": "trap_segment", "a": "-inf", "b": "0"},
        {"kind": "singular_point", "x": "0", "class": "trap"},
        {"kind": "regular_interval", "a": "0", "b": "2",
         "scale": "x", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "2", "class": "trap"},
        {"kind": "trap_segment", "a": "2", "b": "inf"}]}


@pytest.fixture
def borderline_doc():
    """Endpoint whose approach integral sits below float resolution.

    The density piles mass toward 1 exactly fast enough that dyadic
    shells decay like k^(-1.5): too slow to converge in the shell
    budget, too fast for any divergence rule, with the final shells
    lost to cancellation in the scale limit.
    """
    return {"name": "borderline", "pieces": [
        {"kind": "trap_segment", "a": "-inf", "b": "0"},
        {"kind": "singular_point", "x": "0", "class": "trap"},
        {"kind": "regular_interval", "a": "0", "b": "1",
         "scale": "x",
         "speed": {"density": "x^2/((1-x)^2 * ln(1/(1-x))^1.5)"}},
        {"kind": "singular_point", "x": "1", "class": "trap"},
        {"kind": "trap_segment", "a": "1", "b": "inf"}]}


@pytest.fixture
def reflect_glue_doc():
    """One-way point reflecting into the right half-line only.

    The left piece runs its scale to +inf at 0, so nothing approaches
    the point from the left; the right piece includes it as a
    reflecting endpoint.  Fully symmetrizable.
    """
    return {"name": "reflect-glue", "pieces": [
        {"kind": "regular_interval", "a": "-inf", "b": "0",
         "scale": "-ln(-x)", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "0", "class": "right_shunt"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "x", "speed": {"density": "2"}}]}


@pytest.fixture
def cubic_scale_doc():
    """Whole-line diffusion in the scale x^3."""
    return {"name": "cubic-scale", "pieces": [
        {"kind": "regular_interval", "a": "-inf", "b": "inf",
         "scale": "x^3", "speed": {"density": "2"}}]}


@contextlib.contextmanager
def derivations(*functions):
    """Count, by function name, the runs of each function's own body
    while the block runs.  A memoised stage counts the runs of the stage
    it wraps, so a memo hit counts nothing, and no caller's reference to
    the function needs patching."""
    names = {getattr(f, "__wrapped__", f).__code__: f.__name__
             for f in functions}
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


def exact_walk(chain):
    """Exact statistics of a chain of walk nodes between two window edges.

    Returns the walk nodes from left to right, the probability of reaching
    the right edge before the left one from each, and the mean time to
    reach either edge.  Every walk node is a fair coin, so with n of them
    the k-th (from 1) reaches the right edge first with probability
    k / (n + 1), and its mean exit time is the sum over nodes j of
    G_kj tau_j, with G_kj = 2 min(k, j) (n + 1 - max(k, j)) / (n + 1) the
    mean number of visits to j of the simple random walk.
    """
    assert set(chain.kind.tolist()) == {WALK, KILL_WINDOW}
    node = int(chain.nbr_right[int(np.argmin(chain.x))])
    nodes = []
    while chain.kind[node] == WALK:
        nodes.append(node)
        node = int(chain.nbr_right[node])
    nodes = np.asarray(nodes)
    n = len(nodes)
    k = np.arange(1, n + 1)
    green = 2.0 * np.minimum.outer(k, k) * (n + 1 - np.maximum.outer(k, k))
    return nodes, k / (n + 1), green @ chain.tau[nodes] / (n + 1)


_END_OF_KIND = {TRAP_NODE: ABSORBED_TRAP, KILL_WINDOW: KILLED_WINDOW,
                KILL_INF: DEAD_INF}


def reference_walk(chain, start, key, t_max, mode, exponential_holding,
                   target_node, cap):
    """One replication of the engine in plain Python, one step at a time.

    Step k reads counter 2k of the stream ``key`` for its coin and 2k + 1
    for its exponential holding time.  A replication ends before a step
    whose clock would reach t_max; it stops alive at t_max after cap + 1
    moves.  Returns (final_node, final_time, status, hit, capped, times,
    nodes), the last two from the start and after each move.
    """
    node, t, k = int(start), 0.0, 0
    times, nodes = [t], [node]
    while True:
        kind = int(chain.kind[node])
        end = ALIVE if node == target_node else _END_OF_KIND.get(kind, RUNNING)
        tau = math.inf
        if end == RUNNING:
            tau = float(chain.tau[node])
            if exponential_holding and kind == WALK:
                tau *= float(-np.log1p(-_keyed_uniform(key, 2 * k + 1)))
        if t + tau >= t_max:
            keeps = node == target_node or (
                end != RUNNING and (kind != TRAP_NODE or mode == MODE_KILLED))
            return (node, t if keeps else t_max,
                    ALIVE if end == RUNNING else end, node == target_node,
                    False, times, nodes)
        t += tau
        if kind == DET:
            node = int(chain.det_target[node])
        elif _keyed_uniform(key, 2 * k) < 0.5:
            node = int(chain.nbr_right[node])
        else:
            node = int(chain.nbr_left[node])
        k += 1
        times.append(t)
        nodes.append(node)
        if k > cap:
            return node, t_max, ALIVE, False, True, times, nodes
