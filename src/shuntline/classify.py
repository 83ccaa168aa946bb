"""Point classification and the symbolic class sets.

Every finite point is regular (diffuses both ways), a one-directional
shunt (left or right), or a trap.  The derived sets follow the usual
identities: right-singular = right shunts plus traps, left-singular =
left shunts plus traps, the regular set is the complement of their
union, and traps are their intersection.  All points of one piece share
the class its ``Piece.cls`` property names; ``classify_point`` and the
sets read it from there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import LEFT_SHUNT, REGULAR, RIGHT_SHUNT, TRAP, DiffusionSpec
from .sets import RealSet

__all__ = ["PointClass", "classify_point", "regular_decomposition", "lambda_sets"]


class PointClass:
    REGULAR = "regular"
    LEFT_SHUNT = LEFT_SHUNT
    RIGHT_SHUNT = RIGHT_SHUNT
    TRAP = TRAP


def classify_point(spec: DiffusionSpec, x: float) -> str:
    """Class of a finite point."""
    return spec.piece_at(x)[1].cls


def regular_decomposition(spec: DiffusionSpec) -> tuple:
    """Maximal open intervals of regular points, in order.

    Regular pieces are separated by explicit singular points, so each
    regular piece interior is already maximal.
    """
    return tuple((p.a, p.b) for p in spec.pieces if p.kind == REGULAR)


@dataclass(frozen=True)
class LambdaSets:
    lambda2: RealSet
    lambda_pl: RealSet
    lambda_pr: RealSet
    lambda_t: RealSet
    lambda_l: RealSet
    lambda_r: RealSet

    def as_dict(self) -> dict:
        return {
            "lambda2": self.lambda2,
            "lambda_pl": self.lambda_pl,
            "lambda_pr": self.lambda_pr,
            "lambda_t": self.lambda_t,
            "lambda_l": self.lambda_l,
            "lambda_r": self.lambda_r,
        }


def lambda_sets(spec: DiffusionSpec) -> LambdaSets:
    """The six class sets as exact finite unions of intervals and points."""
    pl, pr, tr = (RealSet.from_intervals((p.lo, p.hi, p.is_point, p.is_point)
                                         for p in spec.pieces if p.cls == cls)
                  for cls in (LEFT_SHUNT, RIGHT_SHUNT, TRAP))
    lam_r = pr.union(tr)
    lam_l = pl.union(tr)
    return LambdaSets(
        lambda2=lam_r.union(lam_l).complement(),
        lambda_pl=pl,
        lambda_pr=pr,
        lambda_t=tr,
        lambda_l=lam_l,
        lambda_r=lam_r,
    )
