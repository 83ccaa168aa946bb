"""Command line front end.

Every subcommand reads a spec (``--spec FILE`` or ``--example NAME``),
prints a JSON report on stdout (or ``--out FILE``), and exits

* 0 on success,
* 1 when the spec is invalid or the request cannot be satisfied,
* 2 when a verdict is undetermined and needs an endpoint hint,
* 3 on usage errors.

Values that begin with ``-`` (negative numbers, ``-inf``) must use the
``--flag=value`` form, e.g. ``--window=-2.5,2.5``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys

from .boundary import boundary_profile
from .classify import lambda_sets
from .dirichlet import check_adapted, check_regular_form
from .errors import GraphBuildError, ShuntlineError, UndeterminedVerdict
from .examples import get_example, list_examples
from .graph import build_graph, communication_classes
from .hunt import check_hunt
from .model import load_spec, serialize_spec, spec_digest, validate
from .sets import RealSet
from .simulate import (ALIVE, MODE_FULL, MODE_KILLED, MODE_PART,
                       STATUS_NAMES, build_chain, estimate_hitting,
                       estimate_symmetry_defect, run, simulate_path)
from .symmetry import check_symmetrizable, measure_family

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _jsonify(obj):
    """Recursively coerce report values into plain JSON types."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, RealSet):
        return [{"lo": _jsonify(a), "hi": _jsonify(b),
                 "lo_closed": ca, "hi_closed": cb}
                for a, b, ca, cb in obj.intervals]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _write(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _floats(text: str, n, what: str):
    """The n (any number if None) comma-separated floats of an option."""
    parts = [p.strip() for p in text.split(",")]
    if n is not None and len(parts) != n:
        raise _UsageError(f"{what} needs {n} comma-separated values")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"bad {what}: {exc}")


def _indicator(lo, hi):
    """The indicator function of the open interval (lo, hi)."""
    return lambda x: 1.0 if lo < x < hi else 0.0


def _spec_command(sections):
    """A subcommand that reads the spec and reports its name, digest and
    validation.  An invalid spec ends there with exit 1; a valid one adds
    the report sections ``sections(spec, args)`` returns (if any)."""

    def command(args) -> int:
        spec = get_example(args.example) if args.example else load_spec(args.spec)
        rep = validate(spec)
        report = {
            "name": spec.name,
            "digest": spec_digest(spec),
            "validation": {
                "ok": rep.ok,
                "violations": [{"code": v.code, "where": v.where,
                                "message": v.message} for v in rep.violations],
            },
        }
        if rep.ok and sections:
            report.update(sections(spec, args))
        _write(json.dumps(_jsonify(report), indent=2, sort_keys=True) + "\n",
               args.out)
        return 0 if rep.ok else 1

    return command


# ---------------------------------------------------------------------------
# report sections


def _classify(spec, args) -> dict:
    return {
        "classification": lambda_sets(spec).as_dict(),
        "communication_classes": communication_classes(
            build_graph(spec, args.rel_tol)).as_dict(),
        "boundary": [p.as_dict() for _, p in
                     sorted(boundary_profile(spec, args.rel_tol).items())],
    }


def _check_hunt(spec, args) -> dict:
    hunt = check_hunt(spec, rel_tol=args.rel_tol)
    return {"hunt": hunt.as_dict(),
            "communication_classes": hunt.classes.as_dict()}


def _check_symmetry(spec, args) -> dict:
    hunt = check_hunt(spec, rel_tol=args.rel_tol)
    sym = check_symmetrizable(spec, rel_tol=args.rel_tol)
    return {"hunt": hunt.as_dict(), "symmetry": sym.as_dict()}


def _measure(spec, args) -> dict:
    coeffs = (_floats(args.coefficients, None, "--coefficients")
              if args.coefficients else None)
    sym = check_symmetrizable(spec, rel_tol=args.rel_tol)
    return {"symmetry": sym.as_dict(),
            "measure": measure_family(spec, coeffs, args.rel_tol).as_dict()}


def _dirichlet(spec, args) -> dict:
    sym = check_symmetrizable(spec, rel_tol=args.rel_tol)
    regular = check_regular_form(spec, rel_tol=args.rel_tol)
    adapted = check_adapted(spec, rel_tol=args.rel_tol)
    return {"symmetry": sym.as_dict(),
            "dirichlet": {"regular_form": regular.as_dict(),
                          "adapted": adapted.as_dict()}}


def _simulate(spec, args) -> dict:
    window = _floats(args.window, 2, "--window")
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    if args.n_rep < 1:
        raise _UsageError("--n-rep must be at least 1")
    if not 0.0 <= args.t_max < math.inf:
        raise _UsageError("--t-max must be finite and non-negative")
    chain = build_chain(spec, window, args.h)
    mode = args.mode
    sim = {"window": list(window), "h": args.h, "n_nodes": chain.n_nodes,
           "t_max": args.t_max, "n_rep": args.n_rep, "seed": args.seed}

    if args.target is not None:
        if args.x0 is None:
            raise _UsageError("--target needs --x0")
        sim["hitting"] = estimate_hitting(
            chain, args.x0, args.target, args.t_max, args.n_rep,
            seed=args.seed, n_jobs=args.jobs, mode=mode or MODE_KILLED,
            exponential_holding=args.exponential_holding)
    elif args.defect is not None:
        a, b, c, d = _floats(args.defect, 4, "--defect")
        weights = "lebesgue" if args.weights == "lebesgue" else None
        sim["defect"] = estimate_symmetry_defect(
            chain, _indicator(a, b), _indicator(c, d), args.t_max,
            args.n_rep, seed=args.seed, n_jobs=args.jobs,
            mode=mode or MODE_FULL, weights=weights)
        sim["defect"]["f_window"] = [a, b]
        sim["defect"]["g_window"] = [c, d]
    else:
        if args.x0 is None:
            raise _UsageError("provide --x0 (or --target / --defect)")
        res = run(chain, x0=args.x0, t_max=args.t_max, n_rep=args.n_rep,
                  seed=args.seed, n_jobs=args.jobs, mode=mode or MODE_FULL,
                  exponential_holding=args.exponential_holding)
        counts = {name: int((res["status"] == code).sum())
                  for code, name in STATUS_NAMES.items()}
        xs = chain.x[res["final_node"]]
        alive = res["status"] == ALIVE
        summary = {"status_counts": counts,
                   "mean_final_time": float(res["final_time"].mean())}
        if alive.any():
            summary["alive_mean_position"] = float(xs[alive].mean())
            summary["alive_min_position"] = float(xs[alive].min())
            summary["alive_max_position"] = float(xs[alive].max())
        sim["run"] = summary

    if args.paths_out:
        if args.x0 is None:
            raise _UsageError("--paths-out needs --x0")
        path = simulate_path(chain, args.x0, args.t_max, seed=args.seed,
                             rep=0, mode=mode or MODE_FULL,
                             exponential_holding=args.exponential_holding)
        with open(args.paths_out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "status"])
            for t, x in path.as_rows():
                writer.writerow([f"{t:.12g}", f"{x:.12g}", path.status])
        sim["paths_out"] = args.paths_out

    return {"simulation": sim, "warnings": list(chain.warnings)}


# (name, help, sections) of the analyses, in the order of ``--help``
_ANALYSES = (
    ("classify", "point classes, communication classes, endpoint roles",
     _classify),
    ("check-hunt", "decide whether every path keeps its strong Markov "
                   "structure (no one-way point is hit without being "
                   "revisited)", _check_hunt),
    ("check-symmetry", "decide killed / full symmetrizability",
     _check_symmetry),
    ("measure", "construct a symmetrizing measure", _measure),
    ("dirichlet", "regular-form and adaptedness checks for the energy form",
     _dirichlet),
)


def cmd_example(args) -> int:
    if args.list:
        text = "\n".join(list_examples()) + "\n"
    elif args.name:
        text = serialize_spec(get_example(args.name))
    else:
        raise _UsageError("give an example name or --list")
    _write(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# wiring


def _spec_parser(sub, name, text, sections):
    p = sub.add_parser(name, help=text)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", metavar="FILE", help="spec document to read")
    group.add_argument("--example", metavar="NAME",
                       help="use a built-in example instead of a file")
    p.set_defaults(func=_spec_command(sections))
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="shuntline",
                     description="analyze generalized one-dimensional "
                                 "diffusions given as symbolic specs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _spec_parser(sub, "validate", "parse and audit a spec", None)
    p.add_argument("--out", metavar="FILE")

    for name, text, sections in _ANALYSES:
        p = _spec_parser(sub, name, text, sections)
        p.add_argument("--out", metavar="FILE", help="write the report here")
        p.add_argument("--rel-tol", type=float, default=1e-6,
                       help="relative tolerance for boundary quadrature")
        if name == "measure":
            p.add_argument("--coefficients", metavar="C1,C2,...",
                           help="positive weight per regular component "
                                "(default: all 1)")

    p = _spec_parser(sub, "simulate", "Monte Carlo on a discretized chain",
                     _simulate)
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--window", required=True, metavar="LO,HI",
                   help="simulation window, e.g. --window=-2.5,2.5")
    p.add_argument("--h", type=float, required=True,
                   help="grid step in the scale coordinate")
    p.add_argument("--t-max", type=float, required=True, help="time horizon")
    p.add_argument("--x0", type=float, help="start position")
    p.add_argument("--n-rep", type=int, default=10000,
                   help="number of replications")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; changes neither the "
                        "numbers nor the threads used (must be >= 1)")
    p.add_argument("--mode", choices=[MODE_FULL, MODE_KILLED, MODE_PART],
                   help="absorption handling (default depends on the task)")
    p.add_argument("--exponential-holding", action="store_true",
                   help="draw exponential holding times instead of "
                        "deterministic ones")
    p.add_argument("--target", type=float,
                   help="estimate the probability of visiting this position")
    p.add_argument("--defect", metavar="A,B,C,D",
                   help="estimate the symmetry defect for indicator test "
                        "functions on (A,B) and (C,D)")
    p.add_argument("--weights", choices=["speed", "lebesgue"],
                   default="speed", help="start-weighting for --defect")
    p.add_argument("--paths-out", metavar="FILE",
                   help="write one sample path as CSV (t, x, status)")

    p = sub.add_parser("example", help="print a built-in example spec")
    p.add_argument("name", nargs="?", help="example name")
    p.add_argument("--list", action="store_true", help="list example names")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"shuntline {args.command}: error: {exc}", file=sys.stderr)
        return 3
    except (UndeterminedVerdict, GraphBuildError) as exc:
        print(f"shuntline {args.command}: undetermined: {exc}", file=sys.stderr)
        return 2
    except ShuntlineError as exc:
        print(f"shuntline {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"shuntline {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
