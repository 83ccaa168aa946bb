"""Seeded inputs for the benchmark workloads.

Everything a workload passes into ``shuntline`` is built here from the
workload seed: spec documents (plain dicts, parsed by the workload
itself), estimator arguments and test-function windows.  The same seed
always gives the same sequence.  This module imports nothing from
``shuntline`` so that the inputs cannot depend on the code under test.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random

# c03-style random structural specs: every draw is structurally valid by
# construction and its boundary integrals are cleanly decidable.
SAFE_SCALES = ("x", "x/2", "2*x", "x^3 + x")
SAFE_DENSITIES = ("2", "1", "1 + x^2")
BREAKPOINT_POOL = (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)

# The built-in examples, written out so the generator stays independent
# of the package (same documents as ``shuntline.examples``).
BUILTINS = {
    "bm": [
        {"kind": "regular_interval", "a": "-inf", "b": "inf",
         "scale": "x", "speed": {"density": "2"}},
    ],
    "drift": [
        {"kind": "shunt_segment", "a": "-inf", "b": "inf",
         "direction": "right"},
    ],
    "bessel-glue": [
        {"kind": "regular_interval", "a": "-inf", "b": "0",
         "scale": "x/2", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "0", "class": "right_shunt"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "ln(x)", "speed": {"density": "2*x"}},
    ],
    "exa1": [
        {"kind": "regular_interval", "a": "-inf", "b": "0",
         "scale": "x/2", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "0", "class": "right_shunt"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "x/2", "speed": {"density": "2"}},
    ],
    "exa2": [
        {"kind": "trap_segment", "a": "-inf", "b": "0"},
        {"kind": "singular_point", "x": "0", "class": "trap"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "x/2", "speed": {"density": "2"}},
    ],
    "absorb-reflect": [
        {"kind": "trap_segment", "a": "-inf", "b": "0"},
        {"kind": "singular_point", "x": "0", "class": "trap"},
        {"kind": "regular_interval", "a": "0", "b": "1",
         "scale": "x", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "1", "class": "left_shunt"},
        {"kind": "trap_segment", "a": "1", "b": "inf"},
    ],
    "split-bm": [
        {"kind": "regular_interval", "a": "-inf", "b": "0",
         "scale": "-1/x", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "0", "class": "trap"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "-1/x", "speed": {"density": "2"}},
    ],
    "nonradon": [
        {"kind": "regular_interval", "a": "-inf", "b": "0",
         "scale": "-1/x", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "0", "class": "trap"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "-1/x",
         "speed": {"density": "1/x", "hints": {"a": "infinite"}}},
    ],
}

# Trap-padded unit interval whose approach integral at 1 sits below float
# resolution: the endpoint analysis must refuse it as undetermined.
BORDERLINE = [
    {"kind": "trap_segment", "a": "-inf", "b": "0"},
    {"kind": "singular_point", "x": "0", "class": "trap"},
    {"kind": "regular_interval", "a": "0", "b": "1",
     "scale": "x",
     "speed": {"density": "x^2/((1-x)^2 * ln(1/(1-x))^1.5)"}},
    {"kind": "singular_point", "x": "1", "class": "trap"},
    {"kind": "trap_segment", "a": "1", "b": "inf"},
]

CUBIC = [
    {"kind": "regular_interval", "a": "-inf", "b": "inf",
     "scale": "x^3", "speed": {"density": "2"}},
]

# One pass of the ``verdicts`` workload analyses each structure of the
# pool once.  The random structures are drawn once from the c03-style
# generator (as the c03 test draws its twenty), so every pass has the same
# family mix and run-to-run spread comes from the specs, not the mix.  The
# workload seed sets the order, the positive factors on every scale and
# density, and which quarter of the pass runs at the tight tolerance.
POOL_RANDOM = 64
POOL_BORDERLINE = 2
TIGHT_EVERY = 4
TIGHT_TOL = 1e-8
DEFAULT_TOL = 1e-6


def _factor(rng):
    """A positive constant that leaves every verdict unchanged."""
    return round(rng.uniform(0.5, 2.0), 6)


def _scaled_regular(piece, rng):
    """Multiply scale and speed density by independent positive factors.

    A positive multiple of a scale is still a scale with the same
    limits up to sign-preserving factors, and a positive multiple of a
    density keeps every boundary integral finite or infinite as before.
    """
    out = copy.deepcopy(piece)
    out["scale"] = f"{_factor(rng)}*({piece['scale']})"
    out["speed"]["density"] = f"{_factor(rng)}*({piece['speed']['density']})"
    return out


def _scale_all(pieces, rng):
    return [_scaled_regular(p, rng) if p["kind"] == "regular_interval"
            else copy.deepcopy(p) for p in pieces]


def _allowed_point_classes(left, right):
    """Point classes compatible with the closure of the flanking material."""
    allowed = {"trap", "left_shunt", "right_shunt"}
    if left["kind"] == "trap_segment" or (left["kind"] == "shunt_segment"
                                          and left["direction"] == "right"):
        allowed &= {"trap", "right_shunt"}
    if right["kind"] == "trap_segment" or (right["kind"] == "shunt_segment"
                                           and right["direction"] == "left"):
        allowed &= {"trap", "left_shunt"}
    return sorted(allowed)


def random_pieces(rng):
    """A structurally valid random piece list (c03 style)."""
    cuts = sorted(rng.sample(BREAKPOINT_POOL, rng.randint(0, 3)))
    edges = ["-inf"] + cuts + ["inf"]
    kinds = [rng.choice(("regular_interval", "regular_interval",
                         "shunt_segment", "trap_segment"))
             for _ in range(len(edges) - 1)]
    pieces = []
    prev = None
    for a, b, kind in zip(edges, edges[1:], kinds):
        doc = {"kind": kind, "a": a, "b": b}
        if kind == "regular_interval":
            doc["scale"] = rng.choice(SAFE_SCALES)
            doc["speed"] = {"density": rng.choice(SAFE_DENSITIES)}
        elif kind == "shunt_segment":
            doc["direction"] = rng.choice(("left", "right"))
        if prev is not None:
            pieces.append({"kind": "singular_point", "x": a,
                           "class": rng.choice(_allowed_point_classes(prev, doc))})
        pieces.append(doc)
        prev = doc
    return pieces


def doc_digest(doc):
    """Content digest of a generated document, name included."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _pool():
    """(family, built-in name, unscaled pieces) of every pass item."""
    pool = [("random", None, random_pieces(random.Random(f"structure:{j}")))
            for j in range(POOL_RANDOM)]
    pool += [("builtin", name, pieces) for name, pieces in BUILTINS.items()]
    pool += [("borderline", None, BORDERLINE)] * POOL_BORDERLINE
    return pool


def verdict_passes(seed):
    """Endless, seeded stream of passes: lists of ``verdicts`` operations,
    each a dict with the spec document, its family ("random", "builtin"
    or "borderline"), the built-in name and the tolerance.

    No spec document repeats within a stream, so the package's caches
    never answer across operations.
    """
    rng = random.Random(f"verdicts:{seed}")
    pool = _pool()
    phase = rng.randrange(TIGHT_EVERY)
    seen = set()
    n = 0
    while True:
        items = []
        for j, (family, builtin, pieces) in enumerate(pool):
            tight = (j + n + phase) % TIGHT_EVERY == 0
            doc = {"name": f"{family}-{builtin or j}-s{seed}-p{n}",
                   "pieces": _scale_all(pieces, rng)}
            digest = doc_digest(doc)
            if digest in seen:
                raise AssertionError(f"generator repeated a spec: {doc['name']}")
            seen.add(digest)
            items.append({"doc": doc, "family": family, "builtin": builtin,
                          "rel_tol": TIGHT_TOL if tight else DEFAULT_TOL})
        rng.shuffle(items)
        yield items
        n += 1


def _call_seed(seed, tag, k):
    """Estimator seed for call k of a case, derived from the workload seed."""
    h = hashlib.sha256(f"{seed}:{tag}:{k}".encode()).digest()
    return int.from_bytes(h[:4], "little")


def _spec_doc(name, pieces):
    return {"name": name, "pieces": copy.deepcopy(pieces)}


# One cycle of the ``hitting`` workload: (tag, spec, window, x0, target,
# t_max, h, exponential holding, replications).  Replication counts
# bring every call to a similar cost, so the median call is not one
# case's.  The cubic start stays at 0.5, where the start node sits off
# the requested scale value.
HITTING_CASES = (
    ("bm-h0.02", "bm", (0.0, 1.0), 0.3, 1.0, 50.0, 0.02, False, 2048),
    ("bm-h0.02-exp", "bm", (0.0, 1.0), 0.3, 1.0, 50.0, 0.02, True, 1024),
    ("bm-h0.01", "bm", (0.0, 1.0), 0.3, 1.0, 50.0, 0.01, False, 1024),
    ("cubic-h0.02", "cubic", (0.0, 1.0), 0.5, 1.0, 50.0, 0.02, False, 3072),
    ("cubic-h0.02-exp", "cubic", (0.0, 1.0), 0.5, 1.0, 50.0, 0.02, True, 2048),
    ("cubic-h0.01", "cubic", (0.0, 1.0), 0.5, 1.0, 50.0, 0.01, False, 1024),
    ("exa1-reverse", "exa1", (-2.5, 2.5), 1.0, -1.0, 10.0, 0.05, False, 4096),
)


def _pieces(spec):
    return CUBIC if spec == "cubic" else BUILTINS[spec]


def hitting_cycle(seed, cycle):
    """Keyword arguments of every call in one cycle of ``hitting``."""
    out = []
    for tag, spec, window, x0, target, t_max, h, expo, reps in HITTING_CASES:
        out.append({
            "tag": tag,
            "doc": _spec_doc(f"{tag}-hit-s{seed}-c{cycle}", _pieces(spec)),
            "window": window, "h": h, "x0": x0, "target": target,
            "t_max": t_max, "n_rep": reps,
            "seed": _call_seed(seed, tag, cycle),
            "exponential_holding": expo,
            "reverse": tag == "exa1-reverse",
        })
    return out


# One cycle of the ``defect`` workload: (tag, spec, window, h, t_max,
# mode, weights).  ``exa1`` uses the fixed c07 test functions; ``bm`` and
# ``exa2`` get indicator windows drawn from the seed.
DEFECT_CASES = (
    ("exa1-h0.05", "exa1", (-2.5, 2.5), 0.05, 1.0, "full", "lebesgue"),
    ("exa1-h0.02", "exa1", (-2.5, 2.5), 0.02, 1.0, "full", "lebesgue"),
    ("bm-h0.05", "bm", (0.0, 1.0), 0.05, 0.3, "full", None),
    ("bm-h0.02", "bm", (0.0, 1.0), 0.02, 0.3, "full", None),
    ("exa2-h0.05", "exa2", (-1.0, 3.0), 0.05, 0.5, "killed_at_traps", None),
    ("exa2-h0.02", "exa2", (-1.0, 3.0), 0.02, 0.5, "killed_at_traps", None),
)
DEFECT_REPS = 4096
EXA1_WINDOWS = ((-2.0, -1.0), (1.0, 2.0))


def _c08_windows(rng, lo, hi):
    """Two disjoint indicator windows inside (lo, hi), c08 style."""
    span = hi - lo
    a = rng.uniform(0.05, 0.4)
    b = a + rng.uniform(0.15, 0.5 - a / 2)
    c = rng.uniform(b, 0.9)
    d = min(c + rng.uniform(0.15, 0.3), 0.98)
    return ((lo + a * span, lo + b * span), (lo + c * span, lo + d * span))


def defect_cycle(seed, cycle):
    """Keyword arguments of every call in one cycle of ``defect``."""
    rng = random.Random(f"defect:{seed}:{cycle}")
    out = []
    for tag, spec, window, h, t_max, mode, weights in DEFECT_CASES:
        if spec == "exa1":
            f_win, g_win = EXA1_WINDOWS
        elif spec == "exa2":
            f_win, g_win = _c08_windows(rng, 0.0, window[1])
        else:
            f_win, g_win = _c08_windows(rng, *window)
        out.append({
            "tag": tag,
            "doc": _spec_doc(f"{tag}-defect-s{seed}-c{cycle}", _pieces(spec)),
            "window": window, "h": h, "t_max": t_max, "n_rep": DEFECT_REPS,
            "seed": _call_seed(seed, tag, cycle), "mode": mode,
            "weights": weights, "f_window": f_win, "g_window": g_win,
            "expect_positive": spec == "exa1",
        })
    return out
