"""deviq: deviation equations and Jacobi fields for variational models.

The package takes differential equations, Lagrangians, or Hamiltonians
declared over a fibred space, forms the deviation (linearization)
system by applying the vertical derivative, checks that variation and
vertical differentiation commute, and integrates Jacobi fields along
base solutions in mechanics (one-dimensional base).

The numeric names (`integrate`, `JacobiProblem`, ...) load `deviq.numeric`
on their first use, so `import deviq` alone does not.
"""

from .bundle import (
    BundleSpec,
    MultiIndex,
    iterated_total_derivative,
    max_jet_order,
    multiindices,
    total_derivative,
    vertical_derivative,
)
from .errors import (
    CompileError,
    DeviqError,
    DomainError,
    EvalError,
    ExpansionLimitError,
    IntegrationError,
    OrderOverflowError,
    ParseError,
    SingularEquationError,
    SpecError,
    UnboundSymbolError,
    UnknownSymbolError,
    VerticalExtensionError,
)
from .expr import (
    Add,
    EquivalenceResult,
    Expr,
    Fun,
    Mul,
    Pow,
    Rat,
    Sym,
    SymbolKind,
    as_expr,
    diff,
    equivalent,
    evaluate,
    free_symbols,
    gradient,
    normalize,
    substitute,
    to_text,
)
from .hamiltonian import (
    HamiltonianSystem,
    check_hamilton_deviation_commute,
    hamilton_equations,
    vertical_hamiltonian,
)
from .model import (
    ModelFile,
    check_model,
    derive_equations,
    deviation_equations,
    load_model,
    parse_model,
)
from .render import json_tree, render, spec_json, to_latex
from .variational import (
    CommutationReport,
    EquationSystem,
    Lagrangian,
    PairCheck,
    check_el_vertical_commute,
    deviation_system,
    euler_lagrange,
    is_vertical_linear,
    vertical_extension_density,
)

__version__ = "0.1.0"

#: names of `deviq.numeric`, which is imported on the first read of one:
#: the symbolic commands never run it
_NUMERIC = frozenset({
    "DEFAULT_DT",
    "DEFAULT_EPS_LADDER",
    "FirstOrderSystem",
    "JacobiProblem",
    "ResidualTable",
    "Trajectory",
    "compile_system",
    "finite_difference_jacobi",
    "integrate",
    "numpy_eval",
    "perturbation_residual",
    "solve_jacobi",
})


def __getattr__(name):
    # nothing is bound here, so each read sees `deviq.numeric`'s current
    # binding, also one that a profiler has replaced and later restores
    if name in _NUMERIC:
        from . import numeric

        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_NUMERIC})

__all__ = [
    "Add",
    "BundleSpec",
    "CommutationReport",
    "CompileError",
    "DEFAULT_DT",
    "DEFAULT_EPS_LADDER",
    "DeviqError",
    "DomainError",
    "EquationSystem",
    "EquivalenceResult",
    "EvalError",
    "ExpansionLimitError",
    "Expr",
    "FirstOrderSystem",
    "Fun",
    "HamiltonianSystem",
    "IntegrationError",
    "JacobiProblem",
    "Lagrangian",
    "ModelFile",
    "Mul",
    "MultiIndex",
    "OrderOverflowError",
    "PairCheck",
    "ParseError",
    "Pow",
    "Rat",
    "ResidualTable",
    "SingularEquationError",
    "SpecError",
    "Sym",
    "SymbolKind",
    "Trajectory",
    "UnboundSymbolError",
    "UnknownSymbolError",
    "VerticalExtensionError",
    "as_expr",
    "check_el_vertical_commute",
    "check_hamilton_deviation_commute",
    "check_model",
    "compile_system",
    "derive_equations",
    "deviation_equations",
    "deviation_system",
    "diff",
    "equivalent",
    "euler_lagrange",
    "evaluate",
    "finite_difference_jacobi",
    "free_symbols",
    "gradient",
    "hamilton_equations",
    "integrate",
    "is_vertical_linear",
    "iterated_total_derivative",
    "json_tree",
    "load_model",
    "max_jet_order",
    "multiindices",
    "normalize",
    "numpy_eval",
    "parse_model",
    "perturbation_residual",
    "render",
    "solve_jacobi",
    "spec_json",
    "substitute",
    "to_latex",
    "to_text",
    "total_derivative",
    "vertical_derivative",
    "vertical_extension_density",
    "vertical_hamiltonian",
    "__version__",
]
