"""Shared fixtures: hand-built spec documents, a randomized generator and
an exact solve of the simulation chain.

The generator produces structurally valid specs only (closedness of the
one-way and trap label sets is respected by construction), drawing
scales and densities from a pool whose boundary integrals are cleanly
decidable.
"""

import random
import re

import numpy as np
import pytest

from shuntline import parse_spec
from shuntline.simulate import KILL_WINDOW, WALK

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


def _thomas(sub, sup, rhs):
    """Solve sub[i] v[i-1] + v[i] + sup[i] v[i+1] = rhs[i] (unit diagonal,
    sub[0] and sup[-1] unused) by the Thomas algorithm."""
    n = len(rhs)
    c = np.empty(n)
    d = np.empty(n)
    c[0], d[0] = sup[0], rhs[0]
    for i in range(1, n):
        m = 1.0 - sub[i] * c[i - 1]
        c[i] = sup[i] / m
        d[i] = (rhs[i] - sub[i] * d[i - 1]) / m
    v = np.empty(n)
    v[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        v[i] = d[i] - c[i] * v[i + 1]
    return v


def exact_walk(chain):
    """Exact statistics of a chain of walk nodes between two window edges.

    Returns the walk nodes from left to right, the probability of reaching
    the right edge before the left one from each, and the mean time to
    reach either edge, from the linear equations of the embedded chain:
    v = p v(right) + (1 - p) v(left), and T = tau + p T(right)
    + (1 - p) T(left) with T = 0 at the edges.
    """
    assert set(chain.kind.tolist()) == {WALK, KILL_WINDOW}
    node = int(chain.nbr_right[int(np.argmin(chain.x))])
    nodes = []
    while chain.kind[node] == WALK:
        nodes.append(node)
        node = int(chain.nbr_right[node])
    nodes = np.asarray(nodes)
    p = chain.p_right[nodes]
    right_edge = np.zeros(len(nodes))
    right_edge[-1] = p[-1]
    hit = _thomas(p - 1.0, -p, right_edge)
    exit_time = _thomas(p - 1.0, -p, chain.tau[nodes])
    return nodes, hit, exit_time
