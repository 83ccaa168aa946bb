"""Symbolic analysis and simulation of generalized one-dimensional
diffusions built from regular intervals, one-way (shunt) material, and
traps.

The high-level entry points:

* ``parse_spec`` / ``load_spec`` / ``validate`` read and audit a spec;
* ``lambda_sets`` and ``communication_classes`` give the symbolic
  structure;
* ``check_hunt`` decides whether one-way points break the usual path
  regularity, ``check_symmetrizable`` decides killed and full
  symmetrizability, ``canonical_measure`` builds the measure;
* ``make_form`` / ``energy`` / ``membership`` expose the energy form,
  with ``check_regular_form`` and ``check_adapted`` as structure tests;
* ``build_chain`` / ``run`` / ``estimate_hitting`` /
  ``estimate_symmetry_defect`` validate verdicts by Monte Carlo.
"""

from .boundary import (EndpointAnalysis, approachable, boundary_profile,
                       endpoint_role, scale_limit)
from .classify import (LambdaSets, PointClass, classify_point, lambda_sets,
                       regular_decomposition)
from .dirichlet import (AdaptedReport, FormDescriptor, MembershipReport,
                        Profile, RegularFormReport, TestFunction,
                        check_adapted, check_regular_form, clip_unit, energy,
                        indicator_profile, linear_profile, make_form,
                        membership, ramp_profile, require_member)
from .errors import (ChainBuildError, DomainError, EvalError, ExprError,
                     GraphBuildError, InvalidSpecError, MembershipError,
                     NotSymmetrizableError, QuadratureError, ShuntlineError,
                     SpecParseError, UndeterminedVerdict)
from .examples import example_document, get_example, list_examples
from .graph import (CommunicationClasses, CommunicationGraph, build_graph,
                    communication_classes, reaches, ring_interior)
from .hunt import HuntReport, Witness, check_hunt, singleton_status
from .model import (DiffusionSpec, MeasureSpec, Piece, ValidationReport,
                    Violation, eval_scale, eval_speed_mass, load_spec,
                    parse_spec, serialize_spec, spec_digest, validate)
from .sets import RealSet
from .simulate import (ChainModel, PathResult, analytic_hitting, build_chain,
                       estimate_hitting, estimate_symmetry_defect, run,
                       simulate_path)
from .symmetry import (Component, Measure, MeasureEntry, SymmetryReport,
                       canonical_measure, check_symmetrizable, lambda_ap,
                       lambda_at, measure_family)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "DiffusionSpec", "MeasureSpec", "Piece", "ValidationReport", "Violation",
    "parse_spec", "load_spec", "serialize_spec", "spec_digest", "validate",
    "eval_scale", "eval_speed_mass",
    # sets and classes
    "RealSet", "LambdaSets", "PointClass", "classify_point", "lambda_sets",
    "regular_decomposition",
    # boundary
    "EndpointAnalysis", "scale_limit", "approachable", "endpoint_role",
    "boundary_profile",
    # graph
    "CommunicationGraph", "CommunicationClasses", "build_graph",
    "communication_classes", "reaches", "ring_interior",
    # hunt
    "HuntReport", "Witness", "check_hunt", "singleton_status",
    # symmetry
    "SymmetryReport", "Component", "Measure", "MeasureEntry",
    "check_symmetrizable", "canonical_measure", "measure_family",
    "lambda_ap", "lambda_at",
    # dirichlet
    "Profile", "TestFunction", "FormDescriptor", "MembershipReport",
    "RegularFormReport", "AdaptedReport", "make_form", "energy",
    "membership", "require_member", "clip_unit", "check_regular_form",
    "check_adapted", "linear_profile", "ramp_profile", "indicator_profile",
    # simulate
    "ChainModel", "PathResult", "build_chain", "run", "simulate_path",
    "estimate_hitting", "analytic_hitting", "estimate_symmetry_defect",
    # examples
    "get_example", "example_document", "list_examples",
    # errors
    "ShuntlineError", "ExprError", "EvalError", "SpecParseError",
    "InvalidSpecError", "DomainError", "UndeterminedVerdict",
    "GraphBuildError", "NotSymmetrizableError", "MembershipError",
    "ChainBuildError", "QuadratureError",
]
