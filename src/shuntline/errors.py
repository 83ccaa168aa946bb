"""Exception hierarchy shared across the package."""


class ShuntlineError(Exception):
    """Base class for all errors raised by this package."""


class ExprError(ShuntlineError):
    """Malformed expression text."""


class EvalError(ShuntlineError):
    """Expression evaluation hit a domain problem (log of a negative
    number, fractional power of a negative base, 0/0, ...)."""


class SpecParseError(ShuntlineError):
    """Spec document is syntactically or structurally invalid."""


class InvalidSpecError(ShuntlineError):
    """A parsed spec breaks a rule that ``validate`` audits, and the
    answer asked for depends on that rule."""


class DomainError(ShuntlineError):
    """A point or interval lies outside the piece it was evaluated on."""


class UndeterminedVerdict(ShuntlineError):
    """A tri-state verdict came out undetermined where a definite answer
    was required.  The message names the endpoint and, where it helps,
    suggests an endpoint mass hint."""


class QuadratureError(UndeterminedVerdict):
    """An adaptive cell integral missed its tolerance at the subdivision
    limit, so the numerics cannot resolve the quantity."""


class GraphBuildError(ShuntlineError):
    """Reachability graph could not be assembled."""


class NotSymmetrizableError(ShuntlineError):
    """An operation that needs a symmetrizable spec was called on one
    that is not."""


class MembershipError(ShuntlineError):
    """A test function fails a form-domain membership condition."""


class ChainBuildError(ShuntlineError):
    """The requested window/step cannot be discretized into a chain."""
