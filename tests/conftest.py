"""Shared fixtures: corpus paths, canonical initial data, random expressions."""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from deviq import BundleSpec, Fun, Rat, load_model

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"

LAGRANGIAN_MODELS = (
    "oscillator", "pendulum", "sphere", "cubic", "quartic", "expden",
    "mexican", "twofield", "elastica", "laplace", "wave", "kg",
)
HAMILTONIAN_MODELS = ("hosc", "hpend", "hquartic", "hkepler", "hcov")
EQUATION_MODELS = ("riccati", "logistic")

# Canonical initial data for every model with a one-dimensional base:
# (base initial data, Jacobi initial data, window end).  The window
# starts at 0 and uses the default step unless a test overrides it.
ODE_CORPUS = {
    "oscillator": (dict(y=1.0, y_t=0.0), dict(v_y=0.0, v_y_t=1.0), 2.0),
    "pendulum":   (dict(y=2.0, y_t=0.0), dict(v_y=1.0, v_y_t=0.0), 2.0),
    "sphere":     (dict(theta=math.pi / 2, theta_t=0.0, phi=0.0, phi_t=1.0),
                   dict(v_theta=0.0, v_theta_t=1.0, v_phi=0.0, v_phi_t=0.0), math.pi),
    "cubic":      (dict(y=0.0, y_t=1.0), dict(v_y=1.0, v_y_t=0.0), 2.0),
    "quartic":    (dict(y=1.0, y_t=0.0), dict(v_y=1.0, v_y_t=0.0), 2.0),
    "expden":     (dict(y=0.0, y_t=1.0), dict(v_y=1.0, v_y_t=0.0), 2.0),
    "mexican":    (dict(y=0.5, y_t=0.0), dict(v_y=1.0, v_y_t=0.0), 2.0),
    "twofield":   (dict(y=1.0, y_t=0.0, u=0.5, u_t=0.0),
                   dict(v_y=1.0, v_y_t=0.0, v_u=0.0, v_u_t=0.0), 2.0),
    "elastica":   (dict(y=0.0, y_t=1.0, y_tt=0.5, y_ttt=0.0),
                   dict(v_y=1.0, v_y_t=0.0, v_y_tt=0.0, v_y_ttt=0.0), 2.0),
    "riccati":    (dict(y=-1.0), dict(v_y=1.0), 2.0),
    "logistic":   (dict(y=0.5), dict(v_y=1.0), 2.0),
    "hosc":       (dict(y=1.0, pt_y=0.0), dict(v_y=0.0, vpt_y=1.0), 2.0),
    "hpend":      (dict(y=2.0, pt_y=0.0), dict(v_y=1.0, vpt_y=0.0), 2.0),
    "hquartic":   (dict(y=1.0, pt_y=0.0), dict(v_y=1.0, vpt_y=0.0), 2.0),
    "hkepler":    (dict(r=1.0, pt_r=0.0), dict(v_r=1.0, vpt_r=0.0), 2.0),
}

# Models whose compiled deviation block has constant coefficients along
# the chosen data, so the finite-difference oracle agrees to roundoff.
LINEAR_ODE_MODELS = ("oscillator", "hosc", "elastica")


def model_path(name: str) -> Path:
    return MODELS_DIR / f"{name}.eqn"


def corpus_model(name: str, order=None):
    return load_model(model_path(name), order=order)


@pytest.fixture
def mechanics_spec():
    return BundleSpec.make(["t"], ["y"], order=2)


def rand_expr(rng: random.Random, atoms, depth: int):
    """Random closed expression over the given atoms.

    Sticks to polynomials in the atoms composed with sin, cos, and exp,
    which keeps every identity in this suite exactly cancellable by
    normalize().
    """
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.25:
            return Rat(Fraction(rng.randint(-3, 3)))
        return rng.choice(atoms)
    op = rng.choice(["add", "mul", "pow", "sin", "cos", "exp"])
    if op == "add":
        return rand_expr(rng, atoms, depth - 1) + rand_expr(rng, atoms, depth - 1)
    if op == "mul":
        return rand_expr(rng, atoms, depth - 1) * rand_expr(rng, atoms, depth - 1)
    if op == "pow":
        return rand_expr(rng, atoms, depth - 1) ** rng.randint(2, 3)
    return Fun(op, rand_expr(rng, atoms, depth - 1))


def first_order_atoms(spec: BundleSpec):
    """t, y, y_t style atoms for random order-1 expressions."""
    out = list(spec.base)
    for f in spec.fibre_names:
        out.append(spec.symbol(f))
        out.append(spec.symbol(f + "_" + spec.base_names[0]))
    return out


def reduced_pairs(p: dict) -> bool:
    """True when every coefficient of the expansion `p` is a reduced
    (numerator, denominator) pair of ints, the denominator positive and
    the numerator not zero."""
    return all(
        type(n) is int and type(d) is int and n and d > 0 and math.gcd(n, d) == 1
        for n, d in p.values()
    )
