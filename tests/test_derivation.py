"""The polynomial derivation against the tree-rule definitions it replaces,
and the expansion a normal form carries.

`diff`, `gradient`, `total_derivative` and `vertical_derivative` take
their partials from one expansion of the polynomial, an opaque atom's by
the chain rule on its argument's expansion.  Here each is compared, on
random expressions, with the definition by the tree rule `_diff` (kept
here as the reference; the library has no tree rule) followed by
`normalize`, and the bundle operators with their sum-of-partials formula
built term by term.  The stored expansion of a
normal form is compared with a fresh expansion of an equal tree, and
checked to stay unchanged by every operation that reads it.  A sum made
as a normal form builds its terms on first read; before and after that
read it behaves as the sum built from the same terms.
"""

import copy
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from deviq import (
    Add,
    BundleSpec,
    DomainError,
    EquationSystem,
    ExpansionLimitError,
    Fun,
    Lagrangian,
    Mul,
    MultiIndex,
    Pow,
    Rat,
    Sym,
    check_model,
    deviation_system,
    diff,
    equivalent,
    euler_lagrange,
    free_symbols,
    gradient,
    load_model,
    normalize,
    parse_model,
    substitute,
    to_text,
    total_derivative,
    vertical_derivative,
)
from deviq import expr
from deviq.expr import DEPENDENT_KINDS, ONE, ZERO, _poly, _substitute, derivation, ln, sqrt
from conftest import rand_expr, reduced_pairs

GOLDEN_MODELS = Path(__file__).resolve().parent / "golden" / "models"

SPEC = BundleSpec.make(["t"], ["y", "u"], params=["omega"], order=2)
VSPEC = SPEC.vertical_extension()
ATOMS = [Sym(SPEC.symbol(n)) for n in ("t", "y", "u", "y_t", "u_t", "omega")]
SEEDS = range(60)


def rand_mixed(rng: random.Random):
    """A `rand_expr` expression times an atom with a rational power, a
    square root, a logarithm, a tangent or atoms inside an atom, plus
    another `rand_expr` expression.  With sin, cos and exp from
    `rand_expr`, every outer derivative of the chain rule is taken."""
    inner = rand_expr(rng, ATOMS, 1)
    atom = rng.choice((
        Pow(inner, Fraction(rng.choice((-3, -1, 1, 3, 5)), rng.choice((2, 3)))),
        sqrt(inner),
        ln(inner),
        inner ** -1,
        Fun("tan", inner),
        sqrt(ln(inner) + Fun("tan", inner) ** 2),
    ))
    return rand_expr(rng, ATOMS, 2) * atom + rand_expr(rng, ATOMS, 2)


def _diff(e, s):
    """The tree rule: the partial of the tree `e` by `s`, node by node."""
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.symbol == s else ZERO
    if isinstance(e, Add):
        return Add(tuple(_diff(t, s) for t in e.terms))
    if isinstance(e, Mul):
        parts = []
        fs = e.factors
        for i, f in enumerate(fs):
            parts.append(Mul((*fs[:i], _diff(f, s), *fs[i + 1 :])))
        return Add(tuple(parts))
    if isinstance(e, Pow):
        # d(b^q) = q * b^(q-1) * db  (q is a literal rational)
        return Mul((Rat(e.exponent), Pow(e.base, e.exponent - 1), _diff(e.base, s)))
    if isinstance(e, Fun):
        inner = _diff(e.arg, s)
        u = e.arg
        if e.name == "sin":
            outer = Fun("cos", u)
        elif e.name == "cos":
            outer = Mul((Rat(Fraction(-1)), Fun("sin", u)))
        elif e.name == "tan":
            outer = Add((ONE, Pow(Fun("tan", u), Fraction(2))))
        elif e.name == "exp":
            outer = Fun("exp", u)
        elif e.name == "ln":
            outer = Pow(u, Fraction(-1))
        elif e.name == "sqrt":
            outer = Mul((Rat(Fraction(1, 2)), Pow(Fun("sqrt", u), Fraction(-1))))
        else:  # pragma: no cover - Fun constructor rejects unknown names
            raise ValueError(e.name)
        return Mul((outer, inner))
    raise TypeError(f"not an expression node: {e!r}")


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
    texts = [str(normalize(e)) for _, e in seen]
    # the exponent 1/2 is written sqrt(...): a fractional power shows either way
    assert sum("^(" in s or "sqrt(" in s for s in texts) >= 15
    assert sum("ln(" in s for s in texts) >= 5
    assert sum("sqrt(" in s for s in texts) >= 5
    assert sum("tan(" in s for s in texts) >= 5


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
            lambda s: Rat(Fraction(1)) if s == t else Sym(SPEC.jet(s, MultiIndex((0,)))),
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


# --------------------------------------------------------------------------
# the stored expansion of a normal form

def rebuilt(e):
    """A structurally equal copy of `e` made node by node, which carries no
    stored expansion."""
    if isinstance(e, Rat):
        return Rat(e.value)
    if isinstance(e, Sym):
        return Sym(e.symbol)
    if isinstance(e, Add):
        return Add(tuple(rebuilt(t) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(rebuilt(f) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(rebuilt(e.base), e.exponent)
    return Fun(e.name, rebuilt(e.arg))


def test_normal_form_is_its_own_normal_form():
    for seed, e in cases():
        n = normalize(e)
        assert normalize(n) is n, seed
        assert normalize(rebuilt(n)) == n, seed


def test_stored_expansion_matches_a_fresh_expansion():
    for seed, e in cases():
        n = normalize(e)
        copy = rebuilt(n)
        assert copy == n and copy._expansion is None, seed
        assert _poly(n) == _poly(copy), seed


def test_stored_expansion_survives_every_operation():
    symbols = [a.symbol for a in ATOMS]
    absent = SPEC.symbol("u_tt")
    compared = differing = 0
    previous = ZERO
    for seed, e in cases():
        n = normalize(e)
        stored = n._expansion
        if stored is None:
            continue  # zero, or an atom handed back as it is
        compared += 1
        snapshot = dict(stored)
        for s in symbols:
            diff(n, s)
        gradient(n, symbols)
        derivation(n, lambda s: True, lambda s: Sym(s))
        for other in (e, previous):  # equal, then mostly different
            same, gap = equivalent(n, other), normalize(n - other)
            assert bool(same) == (gap == ZERO), seed
            reason = f"differ by {len(_poly(gap))} terms" if gap != ZERO else "coincide"
            assert same.reason == f"normal forms {reason}", seed
            differing += not same
        previous = e
        substitute(n, {symbols[1]: Sym(symbols[0]) + 1})
        assert substitute(n, {}) is n, seed
        assert substitute(n, {absent: Rat(Fraction(2))}) is n, seed
        assert n._expansion is stored and stored == snapshot, seed
        assert reduced_pairs(stored), seed
    assert compared >= 50 and differing >= 40, differing


def test_untouched_subtrees_are_kept():
    y, t = (Sym(SPEC.symbol(n)) for n in ("y", "t"))
    inner = normalize(Fun("sin", y + 1))
    e = Add((Mul((inner, y)), t))
    assert substitute(e, {}) == normalize(e)
    swapped = _substitute(e, {t.symbol: y})
    assert swapped.terms[0] is e.terms[0]
    assert _substitute(e, {}) is e


# --------------------------------------------------------------------------
# a sum's terms, built on first read

class TwinAdd(Add):
    """A subclass, never equal to an `Add`."""


#: what a normal form shares with the sum built from its terms
LAZY_CHECKS = {
    "equality": lambda n, built: n == built and built == n and not n != built,
    "hash": lambda n, built: hash(n) == hash(built) and {built: 1}[n] == 1,
    "repr": lambda n, built: repr(n) == repr(built),
    "copy": lambda n, built: copy.copy(n) == built,
    "deepcopy": lambda n, built: copy.deepcopy(n) == built,
    "pickle": lambda n, built: pickle.loads(pickle.dumps(n)) == built,
    "subclass": lambda n, built: n != TwinAdd(built.terms) and TwinAdd(built.terms) != n,
}


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("name", LAZY_CHECKS)
def test_normal_form_sum_behaves_as_its_terms(name, read):
    compared = 0
    for seed, e in cases():
        n = normalize(e)
        if not isinstance(n, Add):
            continue
        assert n._terms is None, seed
        built = Add(normalize(e).terms)
        if read:
            assert n.terms == built.terms and n._terms is not None, seed
        assert LAZY_CHECKS[name](n, built), seed
        compared += 1
    assert compared >= 50


def test_equal_normal_forms_compare_unread():
    compared = 0
    for seed, e in cases():
        a, b = normalize(e), normalize(e)
        if isinstance(a, Add):
            assert a is not b and a == b and not a != b, seed
            assert a._terms is None and b._terms is None, seed
            assert a != normalize(e + 1) and a._terms is None, seed
            compared += 1
    assert compared >= 50


def test_check_leaves_pair_sides_unread():
    for name in ("fpu-L4", "fpu-H4"):
        report = check_model(load_model(GOLDEN_MODELS / f"{name}.eqn"))
        assert report.passed
        sides = [s for pair in report.entries for s in (pair.left, pair.right)]
        assert sum(isinstance(s, Add) for s in sides) >= 8, name
        assert all(s._terms is None for s in sides if isinstance(s, Add)), name


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
def test_over_long_constant_is_refused_by_normalize(read):
    y, t = (Sym(SPEC.symbol(n)) for n in ("y", "t"))
    n = normalize(y + t)
    if read:
        n.terms
    big = Rat(Fraction(10**600))
    with pytest.raises(ExpansionLimitError, match="a normal form would hold a constant longer"):
        normalize(n * big * big)


def test_mixed_exponents_fold():
    y = Sym(SPEC.symbol("y"))
    half = Pow(y, Fraction(1, 2))
    assert normalize(half * half) == y
    assert normalize(Pow(Pow(y, Fraction(1, 3)), Fraction(3))) == y
    assert normalize(Pow(y, Fraction(2)) * Pow(y, Fraction(-2))) == Rat(Fraction(1))
    # whole exponents are plain ints, so monomials hash without Fraction
    for seed, e in cases():
        for mono in _poly(normalize(e)):
            for _, ex in mono:
                assert type(ex) is int or ex.denominator != 1, seed


def test_constructors_take_normal_forms_without_expanding(monkeypatch):
    model = load_model(GOLDEN_MODELS / "fpu-L4.eqn")
    lagrangian = model.lagrangian()
    operator = euler_lagrange(lagrangian)
    system = deviation_system(operator)

    def refuse(*args):
        raise AssertionError("a normal form was expanded again")

    monkeypatch.setattr(expr, "_poly_mul", refuse)
    assert EquationSystem(system.equations, system.spec, "deviation-pair") == system
    assert Lagrangian(lagrangian.density, lagrangian.spec) == lagrangian


def test_kernel_does_no_fraction_arithmetic(monkeypatch):
    text = (GOLDEN_MODELS / "fpu-L4.eqn").read_text(encoding="utf-8")
    expected = load_model(GOLDEN_MODELS / "fpu-L4.eqn").lagrangian().density

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the polynomial kernel")

    for op in ("__add__", "__radd__", "__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(Fraction, op, refuse)
    density = parse_model(text).lagrangian().density
    symbols = sorted(free_symbols(density), key=lambda s: s.name)
    partials = gradient(density, symbols)
    flow = derivation(density, lambda s: True, lambda s: Sym(s))
    monkeypatch.undo()
    # rendering multiplies Fractions, so it is compared with the patch undone
    assert density == expected
    assert partials == gradient(expected, symbols)
    assert flow == derivation(expected, lambda s: True, lambda s: Sym(s))
    assert len(symbols) == 8 and "q4^3" in to_text(flow)
