"""Finite unions of real intervals and points, with exact set algebra.

Used to report the symbolic point-class sets.  Intervals carry endpoint
closure flags; isolated points are degenerate closed intervals.  All
operations return canonical forms, so equality is structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["RealSet"]


def _norm_iv(a, b, ca, cb):
    if a == -math.inf:
        ca = False
    if b == math.inf:
        cb = False
    if b < a or (a == b and not (ca and cb)):
        return None
    return (float(a), float(b), bool(ca), bool(cb))


@dataclass(frozen=True)
class RealSet:
    """Canonical union of disjoint, non-touching intervals."""

    intervals: tuple = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "RealSet":
        return RealSet(())

    @staticmethod
    def line() -> "RealSet":
        return RealSet(((-math.inf, math.inf, False, False),))

    @staticmethod
    def point(x: float) -> "RealSet":
        return RealSet.from_intervals([(x, x, True, True)])

    @staticmethod
    def from_intervals(items) -> "RealSet":
        cleaned = []
        for a, b, ca, cb in items:
            iv = _norm_iv(a, b, ca, cb)
            if iv is not None:
                cleaned.append(iv)
        cleaned.sort(key=lambda iv: (iv[0], not iv[2]))
        merged: list = []
        for iv in cleaned:
            if not merged:
                merged.append(list(iv))
                continue
            cur = merged[-1]
            a, b, ca, cb = iv
            touches = a < cur[1] or (a == cur[1] and (ca or cur[3]))
            if touches:
                if b > cur[1]:
                    cur[1], cur[3] = b, cb
                elif b == cur[1]:
                    cur[3] = cur[3] or cb
            else:
                merged.append(list(iv))
        return RealSet(tuple(tuple(iv) for iv in merged))

    # -- queries -----------------------------------------------------------

    def contains(self, x: float) -> bool:
        for a, b, ca, cb in self.intervals:
            if x < a or (x == a and not ca):
                continue
            if x > b or (x == b and not cb):
                continue
            return True
        return False

    def __contains__(self, x) -> bool:
        return self.contains(x)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    # -- algebra -----------------------------------------------------------

    def union(self, other: "RealSet") -> "RealSet":
        return RealSet.from_intervals(self.intervals + other.intervals)

    def complement(self) -> "RealSet":
        out = []
        lo, lo_closed = -math.inf, False
        for a, b, ca, cb in self.intervals:
            out.append((lo, a, lo_closed, not ca))
            lo, lo_closed = b, not cb
        out.append((lo, math.inf, lo_closed, False))
        return RealSet.from_intervals(out)

    def intersect(self, other: "RealSet") -> "RealSet":
        out = []
        for a1, b1, ca1, cb1 in self.intervals:
            for a2, b2, ca2, cb2 in other.intervals:
                if a1 > a2 or (a1 == a2 and ca2):
                    a, ca = a1, ca1
                else:
                    a, ca = a2, ca2
                if b1 < b2 or (b1 == b2 and cb2):
                    b, cb = b1, cb1
                else:
                    b, cb = b2, cb2
                iv = _norm_iv(a, b, ca, cb)
                if iv is not None:
                    out.append(iv)
        return RealSet.from_intervals(out)

    def difference(self, other: "RealSet") -> "RealSet":
        return self.intersect(other.complement())

    def __repr__(self):
        if not self.intervals:
            return "RealSet(empty)"
        parts = []
        for a, b, ca, cb in self.intervals:
            if a == b:
                parts.append(f"{{{a}}}")
            else:
                parts.append(f"{'[' if ca else '('}{a}, {b}{']' if cb else ')'}")
        return "RealSet(" + " u ".join(parts) + ")"
