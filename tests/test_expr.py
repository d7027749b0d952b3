"""Expression core: normalization, calculus, evaluation, equivalence."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deviq import (
    BundleSpec,
    DomainError,
    ExpansionLimitError,
    Fun,
    Mul,
    Pow,
    Rat,
    Sym,
    UnboundSymbolError,
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
from deviq.expr import (
    MAX_CONSTANT_DIGITS,
    MAX_EXPANSION_TERMS,
    MAX_NORMAL_FORM_TERMS,
    ZERO,
    _collect_symbols,
    _integral,
    _key,
    _mono_mul,
    _qadd,
    _qmul,
    _qpow,
    exp,
    ln,
)
from conftest import first_order_atoms, rand_expr, reduced_pairs

SPEC = BundleSpec.make(["t"], ["y", "u"], order=2)
T = Sym(SPEC.symbol("t"))
Y = Sym(SPEC.symbol("y"))
U = Sym(SPEC.symbol("u"))
YT = Sym(SPEC.symbol("y_t"))


def powers(s, n):
    """1 + s + ... + s^(n-1), a sum of n terms."""
    return sum((s**i for i in range(n)), as_expr(0))


def test_normalize_constant_folding():
    assert normalize(as_expr(2) + 3) == Rat(Fraction(5))
    assert normalize(as_expr(2) ** -2) == Rat(Fraction(1, 4))
    assert normalize(as_expr(8) ** Fraction(2, 3)) == Rat(Fraction(4))
    assert normalize(as_expr(0.5)) == Rat(Fraction(1, 2))
    assert normalize(Y - Y) == Rat(Fraction(0))
    assert normalize(Y * 0) == Rat(Fraction(0))
    assert normalize(Pow(Y, Fraction(0))) == Rat(Fraction(1))


def test_normalize_expansion_and_ordering():
    left = normalize((Y + U) * (Y - U))
    right = normalize(Y * Y - U * U)
    assert left == right
    assert normalize((Y + 1) ** 2) == normalize(Y * Y + 2 * Y + 1)
    # commutativity of the stored form
    assert normalize(Y * U + T) == normalize(T + U * Y)


def test_normalize_keeps_fractional_powers_atomic():
    e = normalize(Pow(Y + 1, Fraction(1, 2)))
    assert isinstance(e, Pow) and e.exponent == Fraction(1, 2)
    # sound exponent merges happen, unsound ones do not
    merged = normalize(Pow(Y, Fraction(1, 2)) * Pow(Y, Fraction(3, 2)))
    assert merged == normalize(Y * Y) or to_text(merged) == "y^2"


def test_exact_function_values():
    assert normalize(Fun("sin", as_expr(0))) == Rat(Fraction(0))
    assert normalize(Fun("cos", as_expr(0))) == Rat(Fraction(1))
    assert normalize(Fun("exp", as_expr(0))) == Rat(Fraction(1))
    assert normalize(Fun("ln", as_expr(1))) == Rat(Fraction(0))
    assert normalize(Fun("sqrt", as_expr(4))) == Rat(Fraction(2))


def test_expansion_limits():
    # constants: up to MAX_CONSTANT_DIGITS digits, from powers or products
    longest = MAX_CONSTANT_DIGITS - 1
    assert normalize(as_expr(10) ** longest) == Rat(Fraction(10**longest))
    for e in (
        as_expr(2) ** 100000000,
        as_expr(8) ** Fraction(100000000, 3),
        (2 * Y) ** 10**6,
        as_expr(10) ** MAX_CONSTANT_DIGITS,
        as_expr(10) ** 600 * as_expr(10) ** 600,
        Pow(Pow(Y, Fraction(10**600)), Fraction(10**600)),
    ):
        with pytest.raises(ExpansionLimitError):
            normalize(e)
    assert normalize(as_expr(1) ** 10**600) == Rat(Fraction(1))
    # terms: (t + y + u)^n has C(n + 2, 2) terms
    assert len(normalize((T + Y + U) ** 30).terms) == 496 <= MAX_EXPANSION_TERMS
    for e in ((T + Y + U) ** 31, (Y + 1) ** 3000):
        with pytest.raises(ExpansionLimitError, match="more than 500 terms"):
            normalize(e)
    # nothing is expanded in an opaque power, whatever its size
    assert isinstance(normalize((Y + 1) ** -3000), Pow)
    # a normal form has at most MAX_NORMAL_FORM_TERMS terms
    assert len(normalize(powers(Y, 25) * powers(U, 40))._expansion) == MAX_NORMAL_FORM_TERMS
    with pytest.raises(ExpansionLimitError, match="would have 1025 terms, more than 1000$"):
        normalize(powers(Y, 25) * powers(U, 41))
    # a product past it is refused between rows, before the rest is built
    with pytest.raises(ExpansionLimitError, match="would have more than 1000 terms$"):
        normalize(powers(Y, 500) * powers(U, 500))


def test_exact_roots_of_big_integers():
    big = 10**20 + 1
    assert normalize(Fun("sqrt", as_expr(big**2))) == Rat(Fraction(big))
    assert normalize(Pow(as_expr(Fraction(big**3, 27)), Fraction(2, 3))) == Rat(Fraction(big**2, 9))
    assert normalize(Fun("sqrt", as_expr(Fraction(10) ** 400))) == Rat(Fraction(10**200))
    # one more than a square has no rational root and stays an atom, its power 1/2
    assert normalize(Fun("sqrt", as_expr(big**2 + 1))) == Pow(as_expr(big**2 + 1), Fraction(1, 2))
    assert isinstance(normalize(Pow(as_expr(big**3 - 1), Fraction(1, 3))), Pow)


def test_zero_power_rules():
    assert normalize(Pow(as_expr(0), Fraction(0))) == Rat(Fraction(1))
    with pytest.raises(DomainError):
        normalize(Pow(as_expr(0), Fraction(-1)))
    with pytest.raises(DomainError, match="logarithm of zero"):
        normalize(Fun("ln", Y - Y))


def test_diff_rules():
    assert normalize(diff(Y * Y, SPEC.symbol("y"))) == normalize(2 * Y)
    assert normalize(diff(Fun("sin", Y), SPEC.symbol("y"))) == normalize(Fun("cos", Y))
    d_tan = normalize(diff(Fun("tan", Y), SPEC.symbol("y")))
    assert d_tan == normalize(1 + Fun("tan", Y) ** 2)
    d_ln = normalize(diff(Fun("ln", Y), SPEC.symbol("y")))
    assert d_ln == normalize(Pow(Y, Fraction(-1)))
    d_sqrt = normalize(diff(Fun("sqrt", Y), SPEC.symbol("y")))
    assert bool(equivalent(d_sqrt, Mul((as_expr(Fraction(1, 2)), Pow(Y, Fraction(-1, 2)))))) is True
    # sqrt(y) and y^(1/2) are one atom of the normal form
    assert d_sqrt == normalize(Mul((as_expr(Fraction(1, 2)), Pow(Y, Fraction(-1, 2)))))
    # independence
    assert normalize(diff(Y, SPEC.symbol("u"))) == Rat(Fraction(0))
    assert normalize(diff(YT, SPEC.symbol("y"))) == Rat(Fraction(0))


def test_powers_of_a_sum_over_one_denominator_share_one_atom():
    """b^(p/d) of a sum is the p-th power of the atom b^(1/d), so sqrt and
    rational powers of one base compare by the normal form."""
    b = Y + 1
    half = Fraction(1, 2)
    assert normalize(Pow(Fun("sqrt", b), Fraction(3))) == normalize(Pow(b, Fraction(3, 2)))
    assert normalize(Pow(Fun("sqrt", b), Fraction(-1))) == normalize(Pow(b, -half))
    assert normalize(Pow(b, half) * Pow(b, Fraction(-3, 2))) == normalize(Pow(b, Fraction(-1, 2)) ** 2)
    assert normalize(diff(Fun("sqrt", b), SPEC.symbol("y"))) == normalize(Mul((as_expr(half), Pow(b, -half))))
    assert to_text(normalize(Pow(b, Fraction(-3, 2)))) == "1/sqrt(1 + y)^3"


def test_diff_chain_and_product():
    e = Fun("exp", Y * Y)
    d = normalize(diff(e, SPEC.symbol("y")))
    assert d == normalize(2 * Y * Fun("exp", Y * Y))
    e2 = Y * Fun("sin", Y)
    d2 = normalize(diff(e2, SPEC.symbol("y")))
    assert d2 == normalize(Fun("sin", Y) + Y * Fun("cos", Y))


def test_substitute_is_simultaneous():
    e = normalize(Y * Y + U)
    swapped = substitute(e, {SPEC.symbol("y"): U, SPEC.symbol("u"): Y})
    assert swapped == normalize(U * U + Y)


def test_substitute_of_no_occurring_symbol_is_the_normal_form_itself():
    e = normalize(Y * Y + U)
    assert substitute(e, {}) is e
    assert substitute(e, {SPEC.symbol("t"): as_expr(5)}) is e
    assert substitute(Y * U, {T: 1}) == normalize(Y * U)
    with pytest.raises(TypeError):
        substitute(e, {SPEC.symbol("t"): "five"})  # values are still checked


def test_cancelling_terms_leave_no_key():
    y = SPEC.symbol("y")
    # a sum, a product and a partial, each of whose terms cancel entirely
    assert normalize((Y + 1) * (Y - 1) - (Y * Y - 1)) is ZERO
    assert gradient(Fun("sin", Y) ** 2 + Fun("cos", Y) ** 2, [y]) == {y: ZERO}
    # the symbol's own term and the chain rule through an atom cancel
    for e in (Y - ln(exp(Y)), ln(exp(Y)) - Y):
        assert normalize(e) != ZERO
        assert gradient(e, [y]) == {y: ZERO} and diff(e, y) is ZERO
    # partly cancelling ones keep just the surviving monomials
    for e, survivors in [
        ((Y + 1) * (Y - 1), {((Y, 2),), ()}),
        (Y * U + Y + 3 - Y, {((U, 1), (Y, 1)), ()}),
        (diff(Y * Y * U - Y * U + ln(exp(Y)) * U, y), {((U, 1), (Y, 1))}),
    ]:
        p = normalize(e)._expansion
        assert set(p) == survivors and reduced_pairs(p)


def _reference_mono_mul(a, b):
    """The product of two monomials by a dict keyed by `_key` and a sort."""
    if not a or not b:
        return a or b
    exps = {}
    order = []
    for atom, e in a + b:
        k = _key(atom)
        if k in exps:
            exps[k] = (exps[k][0], _integral(exps[k][1] + e))
        else:
            exps[k] = (atom, e)
            order.append(k)
    items = [(atom, e) for atom, e in (exps[k] for k in order) if e != 0]
    items.sort(key=lambda p: _key(p[0]))
    return tuple(items)


def test_merged_monomial_product_is_the_dict_product():
    """`_mono_mul` merges its sorted inputs; on seeded random monomials it
    gives the same pairs, exponent types and atom objects as the old
    product through a dict and a sort."""
    sums = normalize(Y + 1), normalize(Y + U)
    # each inner list holds distinct objects of one key
    classes = [
        [Sym(SPEC.symbol(name)) for _ in range(2)] for name in ("t", "u", "y", "y_t")
    ] + [
        [Fun("sin", Y), Fun("sin", Sym(SPEC.symbol("y")))],
        [Fun("cos", sums[0]), Fun("cos", normalize(1 + Y))],
        [Fun("exp", U)],
        [Pow(sums[0], Fraction(1, 2)), Pow(normalize(1 + Y), Fraction(1, 2))],
        [Pow(sums[1], Fraction(-1))],
        [Pow(Fun("tan", Y), Fraction(1, 3))],
    ]
    exponents = (1, 2, 3, -1, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3))

    def monomial(rng):
        chosen = rng.sample(classes, rng.randint(0, 5))
        pairs = [(rng.choice(objs), rng.choice(exponents)) for objs in chosen]
        return tuple(sorted(pairs, key=lambda p: _key(p[0])))

    rng = random.Random(24)
    seen = {"cancel": 0, "whole": 0, "kept": 0, "empty": 0}
    for _ in range(3000):
        a, b = monomial(rng), monomial(rng)
        got, want = _mono_mul(a, b), _reference_mono_mul(a, b)
        assert got == want, (a, b)
        assert [type(x) for _, x in got] == [type(x) for _, x in want]
        assert all(g is w for (g, _), (w, _) in zip(got, want))
        ga, gb = ({_key(atom): (atom, x) for atom, x in m} for m in (a, b))
        out = {_key(atom): x for atom, x in got}
        assert list(out) == sorted(out) and len(out) == len(got) and all(out.values())
        shared = ga.keys() & gb.keys()
        seen["cancel"] += any(k not in out for k in shared)
        seen["whole"] += any(
            type(ga[k][1]) is Fraction and type(out[k]) is int for k in shared & out.keys()
        )
        seen["kept"] += any(ga[k][0] is not gb[k][0] for k in shared)
        seen["empty"] += not a or not b
    assert min(seen.values()) >= 50, seen
    # equal keys keep the first monomial's object, whichever monomial is longer
    y1, y2 = Sym(SPEC.symbol("y")), Sym(SPEC.symbol("y"))
    assert _mono_mul(((y1, 1),), ((U, 1), (y2, 2)))[1][0] is y1
    assert _mono_mul(((y2, 2),), ((y1, -2),)) == ()
    assert _mono_mul((), ((y1, 1),)) == ((y1, 1),) == _mono_mul(((y1, 1),), ())


def test_kept_symbol_key_is_not_a_field():
    y = SPEC.symbol("y")
    a, b = Sym(y), Sym(y)
    assert a._k == _key(a) == (1, "y") and Sym._fields == ("symbol",)
    # a wrong kept key changes nothing but the sort: not equality, hash or repr
    object.__setattr__(b, "_k", (1, "z"))
    assert a == b and hash(a) == hash(b) and repr(b) == "Sym(y)"
    # copies and pickles are made anew, with their key computed again
    for clone in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert clone == a and hash(clone) == hash(a) and repr(clone) == "Sym(y)"
        assert clone._k == (1, "y")


def _pair(q: Fraction) -> tuple:
    return (q.numerator, q.denominator)


#: signed rationals whose numerators and denominators reach past 2^64
COEFFICIENTS = st.builds(
    Fraction, st.integers(-(2**80), 2**80).filter(bool), st.integers(1, 2**70)
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(a=COEFFICIENTS, b=COEFFICIENTS, n=st.integers(-7, 7))
@example(a=Fraction(-3, 2), b=Fraction(3, 2), n=-3)
@example(a=Fraction(2**65 + 1, 3), b=Fraction(-(2**65) + 2, 3), n=-2)
@example(a=Fraction(-4), b=Fraction(4), n=-1)
def test_pair_arithmetic_is_fraction_arithmetic(a, b, n):
    assert _qmul(_pair(a), _pair(b)) == _pair(a * b)
    assert _qadd(_pair(a), _pair(b)) == (_pair(a + b) if a + b else None)
    assert _qadd(_pair(a), _pair(-a)) is None  # a sum that cancels
    assert _qpow(_pair(a), n) == _pair(a**n)


def test_substitute_into_functions():
    e = Fun("sin", Y + U)
    out = substitute(e, {SPEC.symbol("u"): as_expr(0)})
    assert out == normalize(Fun("sin", Y))


def test_evaluate_basics():
    e = normalize(Y ** 2 + 2 * Y + Fun("cos", T))
    v = evaluate(e, {SPEC.symbol("y"): 3.0, SPEC.symbol("t"): 0.0})
    assert abs(v - 16.0) < 1e-12


def test_evaluate_domain_errors():
    with pytest.raises(DomainError):
        evaluate(Fun("ln", Y), {SPEC.symbol("y"): -1.0})
    with pytest.raises(DomainError):
        evaluate(Pow(Y, Fraction(-1)), {SPEC.symbol("y"): 0.0})
    with pytest.raises(DomainError):
        evaluate(Pow(Y, Fraction(1, 2)), {SPEC.symbol("y"): -2.0})
    with pytest.raises(UnboundSymbolError):
        evaluate(Y + U, {SPEC.symbol("y"): 1.0})


def test_equivalent_structural_and_fallback():
    """`equivalent` decides by the normal form alone: an identity that the
    normal form does not see is 'different', with the term count of the
    difference."""
    assert bool(equivalent(normalize((Y + 1) ** 2), Y * Y + 2 * Y + 1)) is True
    assert str(equivalent(Y * (Y + 1), Y * Y + Y)) == "equal (normal forms coincide)"
    trig = equivalent(Fun("sin", Y) ** 2 + Fun("cos", Y) ** 2, as_expr(1))
    assert (trig.verdict, trig.reason) == ("different", "normal forms differ by 3 terms")
    diffr = equivalent(Fun("sin", Y), Fun("cos", Y))
    assert str(diffr) == "different (normal forms differ by 2 terms)"
    assert bool(diffr) is False
    # a difference larger than any normal form may be is still counted
    wide = equivalent(powers(Y, 600), powers(U, 600))
    assert str(wide) == "different (normal forms differ by 1198 terms)"


def test_to_text_shapes():
    assert to_text(normalize(2 * Y)) == "2*y"
    assert to_text(normalize(Y / (3 * YT ** 2))) == "y/(3*y_t^2)"
    assert to_text(normalize(Pow(Y, Fraction(3, 2)))) == "y^(3/2)"
    assert to_text(normalize(Y - U)) == "-u + y"
    assert to_text(normalize(Pow(Y, Fraction(-1)))) == "1/y"
    assert to_text(normalize(Fun("sin", Y + 1))) == "sin(1 + y)"


def test_normalize_random_properties():
    """Idempotence and evaluation agreement on random expressions."""
    spec1 = BundleSpec.make(["t"], ["y"], order=1)
    atoms = first_order_atoms(spec1)
    names = [a.symbol for a in atoms]
    checked = 0
    for trial in range(40):
        rng = random.Random(500 + trial)
        e = rand_expr(rng, atoms, 3)
        n = normalize(e)
        assert normalize(n) == n
        assert normalize(e - e) == Rat(Fraction(0))
        point = {s: rng.uniform(0.3, 1.7) for s in names}
        try:
            a = evaluate(e, point)
            b = evaluate(n, point)
        except DomainError:
            continue
        if math.isfinite(a) and abs(a) < 1e6:
            checked += 1
            assert abs(a - b) <= 1e-9 * (1.0 + abs(a))
    assert checked >= 20


def test_free_symbols():
    e = normalize(Y * YT + Fun("sin", T))
    names = {s.name for s in free_symbols(e)}
    assert names == {"y", "y_t", "t"}


def test_free_symbols_of_normal_form_match_its_tree():
    rng = random.Random(11)
    atoms = first_order_atoms(SPEC)
    stored = 0
    for _ in range(60):
        e = normalize(rand_expr(rng, atoms, 4) + Pow(Y + U, Fraction(1, 2)))
        stored += e._expansion is not None
        tree = set()
        _collect_symbols(e, tree)
        assert free_symbols(e) == tree
    assert stored >= 40
