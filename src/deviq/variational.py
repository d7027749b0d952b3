"""Equation systems, deviation systems, and the Euler-Lagrange map.

The deviation of a system E = 0 is the doubled system {E = 0, d_V E = 0}
on the vertical extension of its bundle: the second block is the exact
linearization of the first, and a solution is a pair (s, psi) of a base
solution and a Jacobi field along it.

`check_el_vertical_commute` mechanizes the commutation theorem: the
Euler-Lagrange operator of the vertically extended density equals the
vertical extension of the Euler-Lagrange operator.  Both sides are built
by derivations (partials, total derivatives, d_V) over the same atoms,
which commute formally, so `equivalent` on normal forms decides each pair exactly.
Failures are data (a report), not exceptions.
"""

from __future__ import annotations

from fractions import Fraction

from .bundle import (
    BundleSpec,
    iterated_total_derivative,
    multiindices,
    vertical_derivative,
)
from .errors import SpecError, UnknownSymbolError
from .expr import (
    VERTICAL_KINDS,
    ZERO,
    Add,
    EquivalenceResult,
    Expr,
    Mul,
    Rat,
    Sym,
    SymbolKind,
    as_expr,
    equivalent,
    free_symbols,
    gradient,
    normalize,
    _poly,
)
from .value import Value

__all__ = [
    "EquationSystem",
    "Lagrangian",
    "vertical_extension_density",
    "euler_lagrange",
    "deviation_system",
    "PairCheck",
    "CommutationReport",
    "check_el_vertical_commute",
]


def check_symbols(e: Expr, spec: BundleSpec) -> int:
    """Every symbol in e must be resolvable within spec (order included),
    a vertical one only on a vertical spec; returns the highest jet order
    among them.  The symbols are checked in name order, so an expression
    with several faults reports the same one in every run."""
    top = 0
    for s in sorted(free_symbols(e), key=lambda s: s.name):
        if s.kind is SymbolKind.BASE:
            spec.base_position(s)
        elif s.kind is SymbolKind.PARAMETER:
            if s not in spec.params:
                raise UnknownSymbolError(s.name)
        else:
            if s.kind in VERTICAL_KINDS and not spec.vertical:
                raise SpecError(f"'{s.name}' is vertical, and the spec has no vertical extension")
            k = spec.jet_order(s)
            if k > spec.order:
                raise SpecError(f"'{s.name}' has jet order {k}, above the spec order {spec.order}")
            top = max(top, k)
    return top


def is_vertical_linear(e: Expr) -> bool:
    """True when every term of normalize(e) has vertical degree exactly 1
    (the zero expression passes).  A vertical symbol inside a function or
    under a negative or non-integer power makes its term non-linear."""
    for mono in _poly(normalize(as_expr(e))):
        deg = 0
        for atom, q in mono:
            if not isinstance(atom, Sym):
                if any(s.kind in VERTICAL_KINDS for s in free_symbols(atom)):
                    return False
            elif atom.kind in VERTICAL_KINDS:
                if q.denominator != 1 or q < 0:
                    return False
                deg += q
        if deg != 1:
            return False
    return True


class EquationSystem(Value):
    """Equations read as `expr = 0`: Euler-Lagrange, Hamilton or declared
    equations.  A `deviation-pair` system stacks the original block and
    its vertical linearization, in that order."""

    _fields = ("equations", "spec", "structure")

    def __init__(self, equations: tuple, spec: BundleSpec, structure: str = "plain"):
        eqs = tuple(normalize(as_expr(e)) for e in equations)
        object.__setattr__(self, "equations", eqs)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "structure", structure)
        if structure not in ("plain", "deviation-pair"):
            raise SpecError(f"unknown system structure '{structure}'")
        for e in eqs:
            check_symbols(e, spec)
        if structure == "deviation-pair":
            if len(eqs) % 2:
                raise SpecError("deviation-pair system must have even length")
            m = len(eqs) // 2
            for a in range(m):
                if not is_vertical_linear(eqs[m + a]):
                    raise SpecError(
                        f"equation {m + a} of a deviation pair is not linear in the vertical symbols"
                    )

    def __len__(self):
        return len(self.equations)


class Lagrangian(Value):
    """A density on the jet space; its order k is the highest jet order
    occurring in it."""

    _fields = ("density", "spec", "order")

    def __init__(self, density: Expr, spec: BundleSpec):
        d = normalize(as_expr(density))
        object.__setattr__(self, "density", d)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "order", check_symbols(d, spec))

    def __reduce__(self):
        return type(self), (self.density, self.spec)


def vertical_extension_density(L: Lagrangian) -> Lagrangian:
    """The Lagrangian with density d_V of the original, on the doubled spec.
    Jet order is preserved; extending twice is refused by the spec."""
    vspec = L.spec.vertical_extension()
    return Lagrangian(vertical_derivative(L.density, vspec), vspec)


def euler_lagrange(L: Lagrangian) -> EquationSystem:
    """The Euler-Lagrange operator: for each variational field y^i the
    component

        dL/dy^i + sum over multi-indices 0 < |Lam| <= k of
                  (-1)^|Lam| d_Lam (dL/dy^i_Lam),

    one equation per field of the spec (vertical fields included on a
    vertical extension), of jet order at most 2k.
    """
    k = L.order
    spec = L.spec if L.spec.order >= 2 * k else L.spec.with_order(2 * k)
    # variational field -> [(multi-index, jet symbol)]
    jets = {
        f: [(idx, spec.jet(f, idx)) for idx in multiindices(spec.n, k, 1)]
        for f in spec.variational_fields
    }
    grad = gradient(L.density, [*jets, *(j for js in jets.values() for _, j in js)])
    comps = []
    for f, js in jets.items():
        parts = [grad[f]]
        for idx, j in js:
            if grad[j] == ZERO:
                continue
            sign = Rat(Fraction(-1) ** idx.order)
            parts.append(Mul((sign, iterated_total_derivative(grad[j], idx, spec))))
        comps.append(normalize(Add(tuple(parts))))
    return EquationSystem(tuple(comps), spec)


def deviation_system(system: EquationSystem) -> EquationSystem:
    """The deviation of E: the system {E = 0, d_V E = 0} on the vertical
    extension.  The first block is the input verbatim; the second is its
    linearization along the fibre."""
    vspec = system.spec.vertical_extension()
    vblock = tuple(vertical_derivative(e, vspec) for e in system.equations)
    return EquationSystem(system.equations + vblock, vspec, "deviation-pair")


class PairCheck(Value):
    _fields = ("label", "left", "right", "result")

    def __init__(self, label: str, left: Expr, right: Expr, result: EquivalenceResult):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "result", result)

    @classmethod
    def decide(cls, label: str, left: Expr, right: Expr) -> "PairCheck":
        """The pair of two normal forms, decided by `equivalent`."""
        return cls(label, left, right, equivalent(left, right))


class CommutationReport(Value):
    """Outcome of a commutation theorem check, one entry per matched pair.
    Each pair is decided by `equivalent` on the normal forms of its two
    sides: a pair passes when they coincide and fails, with the term
    count of their difference, when they do not."""

    _fields = ("title", "entries")

    def __init__(self, title: str, entries: tuple):
        object.__setattr__(self, "title", title)
        object.__setattr__(self, "entries", entries)

    @property
    def passed(self) -> bool:
        return all(entry.result for entry in self.entries)

    def __str__(self):
        head = f"{self.title}: {'PASS' if self.passed else 'FAIL'} ({len(self.entries)} pairs)"
        lines = [head]
        for entry in self.entries:
            mark = "pass" if entry.result else entry.result.verdict
            lines.append(f"  [{mark}] {entry.label}")
            if not entry.result:
                lines.append(f"         left  = {entry.left}")
                lines.append(f"         right = {entry.right}")
                lines.append(f"         {entry.result}")
        return "\n".join(lines)


def check_el_vertical_commute(L: Lagrangian) -> CommutationReport:
    """Verify that the Euler-Lagrange operator of the vertical extension
    is the vertical extension of the Euler-Lagrange operator.

    With A = EL(VL) on the doubled fibre (y^i then v^i) and
    B = deviation(EL(L)) = (delta_i L, d_V delta_i L):

      - the v^i-variation A[m+i] must equal the original component B[i];
      - the y^i-variation A[i] must equal the linearized component B[m+i].
    """
    A = euler_lagrange(vertical_extension_density(L))
    B = deviation_system(euler_lagrange(L))
    m = len(L.spec.fibre)
    entries = []
    for i, y in enumerate(L.spec.fibre):
        entries.append(PairCheck.decide(
            f"v_{y.name}-variation of VL vs component {i + 1} of the original operator",
            A.equations[m + i], B.equations[i]))
        entries.append(PairCheck.decide(
            f"{y.name}-variation of VL vs vertical derivative of component {i + 1}",
            A.equations[i], B.equations[m + i]))
    return CommutationReport("δ(VL) = V(δL)", tuple(entries))
