"""Covariant Hamilton equations and their vertical extension.

A Hamiltonian density lives on the momentum phase space: coordinates
(x^lam, y^i, p^lam_i) with one momentum per fibre x base pair.  The
Hamilton equations are

    y^i_lam = dH/dp^lam_i          (velocity block)
    sum_lam d_lam p^lam_i = -dH/dy^i   (momentum block, summed divergence)

The vertical Hamiltonian VH has density d_V H on the doubled space; the
momentum conjugate to y^i becomes the vertical momentum vp, and the
momentum conjugate to v^i is the original p.  With that pairing the
Hamilton equations of VH are exactly the deviation of the original
Hamilton equations, which `check_hamilton_deviation_commute` verifies
pair by pair.
"""

from __future__ import annotations

from .bundle import BundleSpec, MultiIndex, vertical_derivative
from .errors import SpecError
from .expr import (
    Add,
    Expr,
    as_expr,
    gradient,
    normalize,
)
from .value import Value
from .variational import (
    CommutationReport,
    EquationSystem,
    PairCheck,
    check_symbols,
    deviation_system,
)

__all__ = [
    "HamiltonianSystem",
    "hamilton_equations",
    "vertical_hamiltonian",
    "check_hamilton_deviation_commute",
]


class HamiltonianSystem(Value):
    """A Hamiltonian density over (x^lam, y^i, p^lam_i) and parameters."""

    _fields = ("density", "spec")

    def __init__(self, density: Expr, spec: BundleSpec):
        if not spec.momenta:
            raise SpecError("Hamiltonian spec must carry momentum coordinates")
        d = normalize(as_expr(density))
        object.__setattr__(self, "density", d)
        object.__setattr__(self, "spec", spec)
        if check_symbols(d, spec) > 0:
            raise SpecError("Hamiltonian density must not contain jet symbols")


def hamilton_equations(H: HamiltonianSystem) -> EquationSystem:
    """The covariant Hamilton equations as a plain system:

    velocity block, field-major over (field, base direction):
        y^i_lam - dH/dp^lam_i
    momentum block, one per field:
        sum_lam d_lam p^lam_i + dH/dy^i

    The divergence introduces first-order momentum jets.  On a vertical
    spec the fields run over (y^i, v^i) with the swapped conjugates.
    """
    spec = H.spec if H.spec.order >= 1 else H.spec.with_order(1)
    fields = spec.variational_fields
    momenta = {(f, lam): spec.conjugate_momentum(f, lam) for f in fields for lam in range(spec.n)}
    grad = gradient(H.density, [*fields, *momenta.values()])
    eqs = []
    for f in fields:
        for lam in range(spec.n):
            vel = spec.jet(f, MultiIndex((lam,)))
            eqs.append(normalize(vel - grad[momenta[f, lam]]))
    for f in fields:
        parts = [spec.jet(momenta[f, lam], MultiIndex((lam,))) for lam in range(spec.n)]
        parts.append(grad[f])
        eqs.append(normalize(Add(tuple(parts))))
    return EquationSystem(tuple(eqs), spec, "plain")


def vertical_hamiltonian(H: HamiltonianSystem) -> HamiltonianSystem:
    """The Hamiltonian with density d_V H on the doubled phase space."""
    vspec = H.spec.vertical_extension()
    return HamiltonianSystem(vertical_derivative(H.density, vspec), vspec)


def check_hamilton_deviation_commute(H: HamiltonianSystem) -> CommutationReport:
    """Verify that the Hamilton equations of VH are the deviation of the
    Hamilton equations of H.

    Layouts (m fields, n base directions, N = m*n + m equations in the
    original system):

        A = hamilton_equations(VH):
            A[i*n+lam]        velocity of y^i     A[2mn + i]      momentum of y^i
            A[(m+i)*n+lam]    velocity of v^i     A[2mn + m + i]  momentum of v^i
        B = deviation_system(hamilton_equations(H)):
            B[0 .. N-1] original block, B[N .. 2N-1] vertical block.

    Pairing: the v-velocity and y-momentum rows of A match the vertical
    block of B; the y-velocity rows match verbatim; the v-momentum rows
    reproduce the original momentum equations.
    """
    A = hamilton_equations(vertical_hamiltonian(H))
    B = deviation_system(hamilton_equations(H))
    m = len(H.spec.fibre)
    n = H.spec.n
    N = m * n + m
    entries = []
    for i, y in enumerate(H.spec.fibre):
        for lam, x in enumerate(H.spec.base):
            entries.append(PairCheck.decide(
                f"velocity of {y.name} along {x.name} (verbatim)",
                A.equations[i * n + lam], B.equations[i * n + lam]))
            entries.append(PairCheck.decide(
                f"velocity of v_{y.name} along {x.name} vs linearized velocity equation",
                A.equations[(m + i) * n + lam], B.equations[N + i * n + lam]))
        entries.append(PairCheck.decide(
            f"momentum equation of {y.name} vs linearized momentum equation",
            A.equations[2 * m * n + i], B.equations[N + m * n + i]))
        entries.append(PairCheck.decide(
            f"momentum equation of v_{y.name} vs original momentum equation",
            A.equations[2 * m * n + m + i], B.equations[m * n + i]))
    return CommutationReport("Hamilton(VH) = V(Hamilton)", tuple(entries))
