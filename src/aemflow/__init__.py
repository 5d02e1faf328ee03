"""Exact solving for the almost equal maximum flow problem.

A homologous edge set R with deviation bound Delta ties its member flows
together: all values must lie in [lam, Delta(lam)] where lam is the
smallest flow over R.  The library builds such instances, evaluates the
parameterized value function F exactly over the rationals, solves for the
lexicographically smallest optimum, and cross-checks everything against
enumeration oracles.  See the README for the file format and CLI.
"""

from .concave import solve_concave_single
from .cuts import CutReport, SetCrossing
from .errors import (
    AemflowError,
    BudgetExceeded,
    Infeasible,
    InternalError,
    ParseError,
    UnsupportedDeviation,
    ValidationError,
)
from .fileformat import parse_flow, parse_instance, write_instance, write_result
from .gadgets import (
    GadgetMeta,
    X3CInstance,
    generate_approx_gadget,
    generate_convex_gadget,
    generate_x3c_gadget,
    has_exact_cover,
    x3c_no_instance,
    x3c_yes_instance,
)
from .graph import Edge, Graph
from .instance import (
    FEvaluator,
    HomologousSet,
    Instance,
    SolveResult,
    make_instance,
)
from .ksets import solve_integer_constant, solve_k_constant
from .oracles import oracle_concave_single, oracle_fractional, oracle_integer
from .profile import BreakpointProfile, breakpoint_profile
from .randgen import generate_random
from .values import DeviationFn, PolyValue, simplest_rational_in

__version__ = "0.1.0"

__all__ = [
    "AemflowError",
    "BreakpointProfile",
    "BudgetExceeded",
    "CutReport",
    "DeviationFn",
    "Edge",
    "FEvaluator",
    "GadgetMeta",
    "Graph",
    "HomologousSet",
    "Infeasible",
    "Instance",
    "InternalError",
    "ParseError",
    "PolyValue",
    "SetCrossing",
    "SolveResult",
    "UnsupportedDeviation",
    "ValidationError",
    "X3CInstance",
    "breakpoint_profile",
    "generate_approx_gadget",
    "generate_convex_gadget",
    "generate_random",
    "generate_x3c_gadget",
    "has_exact_cover",
    "make_instance",
    "oracle_concave_single",
    "oracle_fractional",
    "oracle_integer",
    "parse_flow",
    "parse_instance",
    "simplest_rational_in",
    "solve_concave_single",
    "solve_integer_constant",
    "solve_k_constant",
    "write_instance",
    "write_result",
    "x3c_no_instance",
    "x3c_yes_instance",
]
