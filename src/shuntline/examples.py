"""Built-in example specifications.

Each entry is a plain spec document (the same shape ``load_spec`` accepts)
so the catalog doubles as living documentation of the file format.  Use
``get_example`` for a parsed ``DiffusionSpec`` and ``example_document``
for the raw dictionary.
"""

from __future__ import annotations

import copy

from .errors import DomainError
from .model import DiffusionSpec, parse_spec

_CATALOG: dict[str, dict] = {
    "bm": {
        "name": "bm",
        "description": "Standard diffusion on the whole line: one regular "
                       "interval with natural scale and speed density 2.",
        "pieces": [
            {"kind": "regular_interval", "a": "-inf", "b": "inf",
             "scale": "x", "speed": {"density": "2"}},
        ],
    },
    "drift": {
        "name": "drift",
        "description": "Pure rightward drift: a single one-way segment "
                       "covering the line.  Nothing ever returns, so the "
                       "one-way material sits inside its own communication "
                       "class and no symmetrizing measure exists.",
        "pieces": [
            {"kind": "shunt_segment", "a": "-inf", "b": "inf",
             "direction": "right"},
        ],
    },
    "bessel-glue": {
        "name": "bessel-glue",
        "description": "A one-way point glued between ordinary material on "
                       "the left and transient material (scale ln x, like a "
                       "3-dimensional radial part) on the right.  Paths "
                       "pushed right never come back, so the one-way point "
                       "is hit without being revisited.",
        "pieces": [
            {"kind": "regular_interval", "a": "-inf", "b": "0",
             "scale": "x/2", "speed": {"density": "2"}},
            {"kind": "singular_point", "x": "0", "class": "right_shunt"},
            {"kind": "regular_interval", "a": "0", "b": "inf",
             "scale": "ln(x)", "speed": {"density": "2*x"}},
        ],
    },
    "exa1": {
        "name": "exa1",
        "description": "A one-way point between two recurrent regular "
                       "intervals.  The point is approachable from both "
                       "sides, so no symmetrizing measure exists for "
                       "either form.",
        "pieces": [
            {"kind": "regular_interval", "a": "-inf", "b": "0",
             "scale": "x/2", "speed": {"density": "2"}},
            {"kind": "singular_point", "x": "0", "class": "right_shunt"},
            {"kind": "regular_interval", "a": "0", "b": "inf",
             "scale": "x/2", "speed": {"density": "2"}},
        ],
    },
    "exa2": {
        "name": "exa2",
        "description": "Absorbing material on the left half-line with a "
                       "trap point at 0 that the regular right half reaches.  "
                       "Killed symmetrizable, but the trap is hit from "
                       "outside so the unkilled form is not.",
        "pieces": [
            {"kind": "trap_segment", "a": "-inf", "b": "0"},
            {"kind": "singular_point", "x": "0", "class": "trap"},
            {"kind": "regular_interval", "a": "0", "b": "inf",
             "scale": "x/2", "speed": {"density": "2"}},
        ],
    },
    "absorb-reflect": {
        "name": "absorb-reflect",
        "description": "Unit interval of ordinary material with an "
                       "absorbing trap at 0 and a reflecting one-way point "
                       "at 1; trap segments pad both sides.",
        "pieces": [
            {"kind": "trap_segment", "a": "-inf", "b": "0"},
            {"kind": "singular_point", "x": "0", "class": "trap"},
            {"kind": "regular_interval", "a": "0", "b": "1",
             "scale": "x", "speed": {"density": "2"}},
            {"kind": "singular_point", "x": "1", "class": "left_shunt"},
            {"kind": "trap_segment", "a": "1", "b": "inf"},
        ],
    },
    "split-bm": {
        "name": "split-bm",
        "description": "Two half-lines of ordinary material separated by a "
                       "trap at 0 that neither side can approach (scale "
                       "-1/x blows up at 0).  Fully symmetrizable.",
        "pieces": [
            {"kind": "regular_interval", "a": "-inf", "b": "0",
             "scale": "-1/x", "speed": {"density": "2"}},
            {"kind": "singular_point", "x": "0", "class": "trap"},
            {"kind": "regular_interval", "a": "0", "b": "inf",
             "scale": "-1/x", "speed": {"density": "2"}},
        ],
    },
    "nonradon": {
        "name": "nonradon",
        "description": "Like split-bm but the right half carries speed "
                       "density 1/x, which piles infinite mass near 0.  "
                       "Still fully symmetrizable, but the canonical "
                       "measure is infinite on bounded windows touching 0.",
        "pieces": [
            {"kind": "regular_interval", "a": "-inf", "b": "0",
             "scale": "-1/x", "speed": {"density": "2"}},
            {"kind": "singular_point", "x": "0", "class": "trap"},
            {"kind": "regular_interval", "a": "0", "b": "inf",
             "scale": "-1/x",
             "speed": {"density": "1/x", "hints": {"a": "infinite"}}},
        ],
    },
}


def list_examples() -> list[str]:
    """Names of the built-in examples, in catalog order."""
    return list(_CATALOG)


def example_document(name: str) -> dict:
    """The raw spec document for a built-in example (a deep copy)."""
    try:
        doc = _CATALOG[name]
    except KeyError:
        known = ", ".join(_CATALOG)
        raise DomainError(f"unknown example {name!r}; choose one of: {known}")
    return copy.deepcopy(doc)


def get_example(name: str) -> DiffusionSpec:
    """Parse a built-in example; ``validate`` audits it."""
    return parse_spec(example_document(name))
