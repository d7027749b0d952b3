"""The polynomial derivation against the tree-rule definitions it replaces.

`diff`, `gradient`, `total_derivative` and `vertical_derivative` take
their partials from one expansion of the polynomial.  Here each is
compared, on random expressions, with the definition by the tree rule
`_diff` followed by `normalize`, and the bundle operators with their
sum-of-partials formula built term by term.
"""

import random
from fractions import Fraction

import pytest

from deviq import (
    Add,
    BundleSpec,
    DomainError,
    Mul,
    Pow,
    Rat,
    Sym,
    diff,
    free_symbols,
    gradient,
    normalize,
    total_derivative,
    vertical_derivative,
)
from deviq.expr import DEPENDENT_KINDS, ZERO, _diff, ln, sqrt
from conftest import rand_expr

SPEC = BundleSpec.make(["t"], ["y", "u"], params=["omega"], order=2)
VSPEC = SPEC.vertical_extension()
ATOMS = [Sym(SPEC.symbol(n)) for n in ("t", "y", "u", "y_t", "u_t", "omega")]
SEEDS = range(60)


def rand_mixed(rng: random.Random):
    """A `rand_expr` expression times an atom with a rational power, a
    square root or a logarithm, plus another `rand_expr` expression."""
    inner = rand_expr(rng, ATOMS, 1)
    atom = rng.choice((
        Pow(inner, Fraction(rng.choice((-3, -1, 1, 3, 5)), rng.choice((2, 3)))),
        sqrt(inner),
        ln(inner),
        inner ** -1,
    ))
    return rand_expr(rng, ATOMS, 2) * atom + rand_expr(rng, ATOMS, 2)


def tree_diff(e, s):
    """The tree-rule partial: differentiate the tree, then normalize."""
    return normalize(_diff(e, s))


def tree_derivation(e, wanted, weight):
    """sum of weight(s) * de/ds over the wanted symbols of normalize(e)
    with a non-zero partial, by tree-rule partials."""
    e = normalize(e)
    parts = []
    for s in sorted(free_symbols(e), key=lambda s: s.name):
        if not wanted(s):
            continue
        d = tree_diff(e, s)
        if d != ZERO:
            parts.append(Mul((weight(s), d)))
    return normalize(Add(tuple(parts)))


def cases():
    for seed in SEEDS:
        rng = random.Random(seed)
        e = rand_mixed(rng)
        try:
            normalize(e)
        except DomainError:
            continue
        yield seed, e


def defined(f, *args):
    """f(*args), or None where the tree rule raises DomainError.

    It raises on a zero under sqrt or a negative power that normalization
    folds away, e.g. d/dy sqrt(y - y): the tree rule forms (y - y)^(-1/2).
    The derivation sees only the normal form, so there it gives the
    derivative of the normal form instead."""
    try:
        return f(*args)
    except DomainError:
        return None


def test_cases_are_varied():
    seen = list(cases())
    assert len(seen) >= 50
    assert sum("^(" in str(normalize(e)) for _, e in seen) >= 10
    assert sum("ln(" in str(normalize(e)) for _, e in seen) >= 5
    assert sum("sqrt(" in str(normalize(e)) for _, e in seen) >= 5


@pytest.mark.parametrize("s", [a.symbol for a in ATOMS], ids=str)
def test_diff_matches_tree_rule(s):
    compared = 0
    for seed, e in cases():
        expected = defined(tree_diff, e, s)
        if expected is not None:
            compared += 1
            assert diff(e, s) == expected, seed
        assert diff(e, s) == diff(normalize(e), s), seed
    assert compared >= 50


def test_gradient_matches_diff():
    symbols = [a.symbol for a in ATOMS]
    for seed, e in cases():
        grad = gradient(e, symbols)
        assert list(grad) == symbols
        for s in symbols:
            assert grad[s] == diff(e, s), (seed, s)


def test_total_derivative_matches_sum_of_partials():
    t = SPEC.base[0]
    compared = 0
    for seed, e in cases():
        expected = defined(
            tree_derivation,
            e,
            lambda s: s == t or s.kind in DEPENDENT_KINDS,
            lambda s: Rat(Fraction(1)) if s == t else Sym(SPEC.jet_shift(s, 0)),
        )
        if expected is not None:
            compared += 1
            assert total_derivative(e, 0, SPEC) == expected, seed
    assert compared >= 50


def test_vertical_derivative_matches_sum_of_partials():
    compared = 0
    for seed, e in cases():
        expected = defined(
            tree_derivation,
            e,
            lambda s: s.kind in DEPENDENT_KINDS,
            lambda s: Sym(VSPEC.vertical_partner(s)),
        )
        if expected is not None:
            compared += 1
            assert vertical_derivative(e, VSPEC) == expected, seed
    assert compared >= 50
