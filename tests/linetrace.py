"""Run pytest under a line trace and print the shuntline lines no test ran.

    PYTHONPATH=src python tests/linetrace.py -q [pytest arguments]

A line counts when it starts a statement inside a function body and
compiles to code.  The trace is set before shuntline is first imported,
so lines that run at import count, and again at the start of every test,
because Python drops a trace function that raises (a ``RecursionError``
in a deeply nested test input does).  Subprocesses are not traced.  The
exit status is pytest's.
"""

import ast
import importlib.util
import pathlib
import sys

import pytest

SRC = pathlib.Path(importlib.util.find_spec("shuntline").origin).parent
ran = {}


def _trace(frame, event, arg):
    lines = ran.get(frame.f_code.co_filename)
    if lines is None:
        return None
    lines.add(frame.f_lineno)
    return _trace


def _code_lines(code):
    out = set()
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= {line for _, _, line in const.co_lines()} | _code_lines(const)
    return out


def _body_lines(path):
    source = path.read_text()
    starts = {s.lineno for f in ast.walk(ast.parse(source))
              if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
              for s in ast.walk(f) if isinstance(s, ast.stmt) and s is not f}
    return starts & _code_lines(compile(source, str(path), "exec"))


class _Retrace:
    def pytest_runtest_setup(self, item):
        sys.settrace(_trace)


if __name__ == "__main__":
    paths = sorted(SRC.glob("*.py"))
    ran.update({str(p): set() for p in paths})
    sys.settrace(_trace)
    status = pytest.main(sys.argv[1:], plugins=[_Retrace()])
    sys.settrace(None)
    print(f"\n{'module':<16}{'unreached':>10}  lines")
    total = 0
    for p in paths:
        missed = sorted(_body_lines(p) - ran[str(p)])
        total += len(missed)
        print(f"{p.name:<16}{len(missed):>10}  {' '.join(map(str, missed))}")
    print(f"{'total':<16}{total:>10}")
    sys.exit(status)
