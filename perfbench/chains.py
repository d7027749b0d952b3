"""Seeded chain models: FPU chains and coupled pendula, in Lagrangian and
Hamiltonian form.

A `Chain` holds exact coefficients; `model_text` renders it in deviq's
model-file format, and the oracles build the same model in sympy from
the coefficients, so neither side reads the other's text.  Field names
are `q1..qN`, because underscores are reserved for generated names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

FAMILIES = ("fpu", "pendulum")
FORMS = ("lagrangian", "hamiltonian")


@dataclass(frozen=True)
class Chain:
    """N masses with fixed ends (FPU) or N coupled pendula.

    kinetic[i]  coefficient of q{i+1}_t^2 (or pt_q{i+1}^2)
    FPU:        springs[j] = (k, a, b) for the spring between q_j and
                q_{j+1}, j = 0..N, with q_0 = q_{N+1} = 0; its energy is
                k*d^2 + a*d^3 + b*d^4 with d = q_{j+1} - q_j
    pendulum:   gravity[i] weights cos(q{i+1}); coupling[j] weights
                cos(q{j+2} - q{j+1})
    """

    family: str
    form: str
    n: int
    kinetic: tuple
    springs: tuple = ()
    gravity: tuple = ()
    coupling: tuple = ()

    @property
    def name(self) -> str:
        return f"{self.family}-{self.form[0].upper()}{self.n}"

    @property
    def fields(self) -> tuple:
        return tuple(f"q{i}" for i in range(1, self.n + 1))


def _frac(rng: random.Random, lo: int, hi: int, den_hi: int = 9) -> Fraction:
    """A nonzero rational p/q with lo <= p <= hi and 2 <= q <= den_hi;
    a zero coefficient would drop terms and change the problem's shape."""
    return Fraction(rng.randint(lo, hi), rng.randint(2, den_hi))


def make_chain(family: str, form: str, n: int, rng: random.Random) -> Chain:
    """A chain with fresh small-rational coefficients drawn from `rng`.

    Quartic spring terms are positive, so FPU energies are bounded below
    and trajectories from small initial data stay bounded.
    """
    kinetic = tuple(_frac(rng, 1, 4, 8) for _ in range(n))
    if family == "fpu":
        springs = tuple(
            (_frac(rng, 1, 8), rng.choice((-1, 1)) * _frac(rng, 1, 2, 7), _frac(rng, 1, 4))
            for _ in range(n + 1)
        )
        return Chain(family, form, n, kinetic, springs=springs)
    if family == "pendulum":
        gravity = tuple(_frac(rng, 1, 8) for _ in range(n))
        coupling = tuple(_frac(rng, 1, 6) for _ in range(n - 1))
        return Chain(family, form, n, kinetic, gravity=gravity, coupling=coupling)
    raise ValueError(f"unknown chain family {family!r}")


def _q(c: Chain, i: int) -> str:
    return "0" if i in (0, c.n + 1) else f"q{i}"


def _spring_arg(c: Chain, j: int) -> str:
    right, left = _q(c, j + 1), _q(c, j)
    if left == "0":
        return right
    if right == "0":
        return f"(-{left})"
    return f"({right} - {left})"


def potential_text(c: Chain) -> str:
    """Potential energy V, so that L = T - V and H = T + V."""
    if c.family == "fpu":
        terms = []
        for j, (k, a, b) in enumerate(c.springs):
            d = _spring_arg(c, j)
            terms.append(f"({k})*{d}^2 + ({a})*{d}^3 + ({b})*{d}^4")
        return " + ".join(terms)
    terms = [f"({g})*cos(q{i + 1})" for i, g in enumerate(c.gravity)]
    terms += [f"({k})*cos(q{j + 2} - q{j + 1})" for j, k in enumerate(c.coupling)]
    return "-(" + " + ".join(terms) + ")"


def model_text(c: Chain) -> str:
    lines = [f"# {c.name}", "base t", "fibre " + " ".join(c.fields)]
    if c.form == "lagrangian":
        kin = " + ".join(f"({m})*q{i + 1}_t^2" for i, m in enumerate(c.kinetic))
        lines.append(f"lagrangian {kin} - ({potential_text(c)})")
    else:
        kin = " + ".join(f"({m})*pt_q{i + 1}^2" for i, m in enumerate(c.kinetic))
        lines.append(f"hamiltonian {kin} + {potential_text(c)}")
    return "\n".join(lines) + "\n"


def initial_data(c: Chain, rng: random.Random, amplitude: float = 0.1):
    """Small seeded base data, and Jacobi data below 0.2 so that the
    residual law stays quadratic along long windows, for every state."""
    base, jac = {}, {}
    for f in c.fields:
        mom = f"{f}_t" if c.form == "lagrangian" else f"pt_{f}"
        base[f] = rng.uniform(-amplitude, amplitude)
        base[mom] = rng.uniform(-amplitude, amplitude)
        jac["v_" + f] = rng.uniform(-0.2, 0.2)
        jac[("v_" if c.form == "lagrangian" else "v") + mom] = rng.uniform(-0.2, 0.2)
    return base, jac
