"""Closed expressions in one real variable.

The grammar covers constants, the variable ``x``, the four arithmetic
operations, powers with a constant exponent, ``ln``/``log``, ``exp``,
``sqrt``, ``abs``, ``sin``, ``cos`` and piecewise composition by
interval::

    piecewise(-x if x < 0, x)

Branches are guarded by strictly increasing upper bounds; the last
branch is the else case.  Evaluation accepts floats or numpy arrays.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvalError, ExprError

__all__ = [
    "Expr", "Const", "Var", "Neg", "BinOp", "Pow", "Call", "Piecewise",
    "parse_expr", "serialize_expr", "evaluate", "is_constant",
]

_FUNCTIONS = ("ln", "log", "exp", "sqrt", "abs", "sin", "cos")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: float


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class Piecewise:
    # bounds has one entry per branch except the last (the else branch)
    bounds: tuple
    branches: tuple


Expr = Union[Const, Var, Neg, BinOp, Pow, Call, Piecewise]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<op>\*\*|[-+*/^(),<]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            pos = len(text) - len(rest)
            raise ExprError(f"bad character {text[pos]!r} at position {pos} in {text!r}")
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r} in {self.text!r}, got {val!r}")

    def parse(self):
        e = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected trailing {val!r} in {self.text!r}")
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                e = BinOp(val, e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                e = BinOp(val, e, self.factor())
            else:
                return e

    def factor(self):
        e = self.unary()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            exponent = self.unary()
            e = Pow(e, self.constant_value(exponent, "exponent"))
        return e

    def unary(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Neg(self.unary())
        if kind == "op" and val == "+":
            self.take()
            return self.unary()
        return self.atom()

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return Const(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "name":
            if val == "x":
                return Var()
            if val == "inf":
                return Const(math.inf)
            if val == "pi":
                return Const(math.pi)
            if val == "piecewise":
                return self.piecewise()
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call("ln" if val == "log" else val, arg)
            raise ExprError(f"unknown name {val!r} in {self.text!r}")
        raise ExprError(f"unexpected {val!r} in {self.text!r}")

    def piecewise(self):
        self.expect_op("(")
        bounds = []
        branches = []
        closed = False
        while True:
            branches.append(self.expr())
            kind, val = self.peek()
            if kind == "name" and val == "if":
                self.take()
                kind, val = self.take()
                if not (kind == "name" and val == "x"):
                    raise ExprError("piecewise guard must have the form 'x < c'")
                self.expect_op("<")
                bounds.append(self.constant_value(self.expr(), "piecewise bound"))
                kind, val = self.peek()
                if kind == "op" and val == ",":
                    self.take()
                    continue
                # guarded final branch is not allowed: fall through to error
            kind, val = self.take()
            if kind == "op" and val == ")":
                closed = True
            break
        if not closed:
            raise ExprError(f"malformed piecewise expression in {self.text!r}")
        if len(bounds) != len(branches) - 1:
            raise ExprError("piecewise needs an unguarded final branch")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ExprError("piecewise bounds must be strictly increasing")
        return Piecewise(tuple(bounds), tuple(branches))

    def constant_value(self, e, what):
        if not is_constant(e):
            raise ExprError(f"{what} must be a constant expression in {self.text!r}")
        with np.errstate(**_QUIET):
            return float(_eval_raw(e, 0.0))


def parse_expr(text: str) -> Expr:
    """Parse expression text into an AST."""
    if not isinstance(text, str) or not text.strip():
        raise ExprError("empty expression")
    return _Parser(text).parse()


def is_constant(e: Expr) -> bool:
    if isinstance(e, Var):
        return False
    if isinstance(e, Const):
        return True
    if isinstance(e, Neg):
        return is_constant(e.arg)
    if isinstance(e, BinOp):
        return is_constant(e.left) and is_constant(e.right)
    if isinstance(e, Pow):
        return is_constant(e.base)
    if isinstance(e, Call):
        return is_constant(e.arg)
    if isinstance(e, Piecewise):
        return all(is_constant(b) for b in e.branches)
    raise TypeError(f"not an expression node: {e!r}")


def _eval_raw(e, x):
    """Evaluate without domain checks; invalid operations yield nan.

    Run under np.errstate; a constant stays a scalar and broadcasts.
    """
    if isinstance(e, BinOp):
        a = _eval_raw(e.left, x)
        b = _eval_raw(e.right, x)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return np.divide(a, b)
    if isinstance(e, Var):
        return x
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Neg):
        return -_eval_raw(e.arg, x)
    if isinstance(e, Pow):
        return np.power(np.asarray(_eval_raw(e.base, x), dtype=float), e.exponent)
    if isinstance(e, Call):
        a = np.asarray(_eval_raw(e.arg, x), dtype=float)
        if e.fn == "ln":
            return np.log(a)
        if e.fn == "exp":
            return np.exp(a)
        if e.fn == "sqrt":
            return np.sqrt(a)
        if e.fn == "abs":
            return np.abs(a)
        if e.fn == "sin":
            return np.sin(a)
        if e.fn == "cos":
            return np.cos(a)
        raise TypeError(f"unknown function {e.fn!r}")
    if isinstance(e, Piecewise):
        xs = np.asarray(x, dtype=float)
        out = np.asarray(_eval_raw(e.branches[-1], xs), dtype=float)
        out = np.broadcast_to(out, xs.shape).copy() if out.shape != xs.shape else out.copy()
        # walk bounds right to left so the first matching guard wins
        for bound, branch in zip(reversed(e.bounds), reversed(e.branches[:-1])):
            val = np.broadcast_to(np.asarray(_eval_raw(branch, xs), dtype=float), xs.shape)
            out = np.where(xs < bound, val, out)
        return out if isinstance(x, np.ndarray) else float(out)
    raise TypeError(f"not an expression node: {e!r}")


_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")


def evaluate(e: Expr, x):
    """Evaluate at a float or numpy array.

    Raises EvalError when the result is nan anywhere (domain violation).
    Infinities pass through; callers interpret them.
    """
    with np.errstate(**_QUIET):
        out = _eval_raw(e, np.asarray(x, dtype=float) if isinstance(x, np.ndarray)
                        else float(x))
    if isinstance(x, np.ndarray):
        out = np.asarray(out, dtype=float)
        if out.shape != x.shape:
            out = np.broadcast_to(out, x.shape).copy()
        bad = np.isnan(out)
        if bad.any():
            where = float(np.asarray(x, dtype=float)[bad].flat[0])
            raise EvalError(f"expression undefined at x = {where!r}")
        return out
    out = float(out)
    if math.isnan(out):
        raise EvalError(f"expression undefined at x = {x!r}")
    return out


def _fmt_const(v: float) -> str:
    if v == math.inf:
        return "inf"
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def serialize_expr(e: Expr) -> str:
    """Render an AST back to parseable text (parse(serialize(e)) == e)."""
    return _serialize(e, 0)


# precedence levels: 0 additive, 1 multiplicative, 2 power, 3 atom
def _serialize(e, ctx):
    if isinstance(e, Const):
        if e.value < 0:
            s = f"-{_fmt_const(-e.value)}"
            return f"({s})" if ctx >= 1 else s
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Neg):
        s = f"-{_serialize(e.arg, 3)}"
        return f"({s})" if ctx >= 1 else s
    if isinstance(e, BinOp):
        if e.op in "+-":
            s = f"{_serialize(e.left, 0)} {e.op} {_serialize(e.right, 1)}"
            return f"({s})" if ctx >= 1 else s
        s = f"{_serialize(e.left, 1)} {e.op} {_serialize(e.right, 2)}"
        return f"({s})" if ctx >= 2 else s
    if isinstance(e, Pow):
        exp = _fmt_const(e.exponent) if e.exponent >= 0 else f"(-{_fmt_const(-e.exponent)})"
        s = f"{_serialize(e.base, 3)}^{exp}"
        return f"({s})" if ctx >= 3 else s
    if isinstance(e, Call):
        return f"{e.fn}({_serialize(e.arg, 0)})"
    if isinstance(e, Piecewise):
        parts = []
        for bound, branch in zip(e.bounds, e.branches):
            parts.append(f"{_serialize(branch, 0)} if x < {_fmt_const(bound)}")
        parts.append(_serialize(e.branches[-1], 0))
        return f"piecewise({', '.join(parts)})"
    raise TypeError(f"not an expression node: {e!r}")
