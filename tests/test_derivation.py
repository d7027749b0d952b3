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
read it behaves as the sum built from the same terms.  A function or
power atom keeps its sort key, free symbols and partials, and a sum its
free symbols: before and after each fills, the node behaves as one its
constructor makes from its fields (an atom, one object per key, is that
one), and what it keeps equals a fresh computation.
"""

import copy
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from deviq import (
    Add,
    BundleSpec,
    DeviqError,
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
from grammar import random_model

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from chains import make_chain, model_text  # noqa: E402

GOLDEN_MODELS = Path(__file__).resolve().parent / "golden" / "models"

SPEC = BundleSpec.make(["t"], ["y", "u"], params=["omega"], order=2)
VSPEC = SPEC.vertical_extension()
ATOMS = [SPEC.symbol(n) for n in ("t", "y", "u", "y_t", "u_t", "omega")]
SEEDS = range(60)


def rand_mixed(rng: random.Random, atoms=ATOMS):
    """A `rand_expr` expression times an atom with a rational power, a
    square root, a logarithm, a tangent or atoms inside an atom, plus
    another `rand_expr` expression.  With sin, cos and exp from
    `rand_expr`, every outer derivative of the chain rule is taken."""
    inner = rand_expr(rng, atoms, 1)
    atom = rng.choice((
        Pow(inner, Fraction(rng.choice((-3, -1, 1, 3, 5)), rng.choice((2, 3)))),
        sqrt(inner),
        ln(inner),
        inner ** -1,
        Fun("tan", inner),
        sqrt(ln(inner) + Fun("tan", inner) ** 2),
    ))
    return rand_expr(rng, atoms, 2) * atom + rand_expr(rng, atoms, 2)


def _diff(e, s):
    """The tree rule: the partial of the tree `e` by `s`, node by node."""
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e == s else ZERO
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


def cases(atoms=lambda seed: ATOMS):
    """(seed, expression) for each seed whose mixed case normalizes; the
    case of `seed` is over `atoms(seed)`."""
    for seed in SEEDS:
        rng = random.Random(seed)
        e = rand_mixed(rng, atoms(seed))
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


@pytest.mark.parametrize("s", ATOMS, ids=str)
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
    for seed, e in cases():
        grad = gradient(e, ATOMS)
        assert list(grad) == ATOMS
        for s in ATOMS:
            assert grad[s] == diff(e, s), (seed, s)


def test_total_derivative_matches_sum_of_partials():
    t = SPEC.base[0]
    compared = 0
    for seed, e in cases():
        expected = defined(
            tree_derivation,
            e,
            lambda s: s == t or s.kind in DEPENDENT_KINDS,
            lambda s: Rat(Fraction(1)) if s == t else SPEC.jet(s, MultiIndex((0,))),
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
            VSPEC.vertical_partner,
        )
        if expected is not None:
            compared += 1
            assert vertical_derivative(e, VSPEC) == expected, seed
    assert compared >= 50


# --------------------------------------------------------------------------
# the stored expansion of a normal form

def rebuilt(e):
    """A structurally equal copy of `e` made node by node, which carries no
    stored expansion.  Its functions and powers over sums are over trees,
    so they are not the atoms of `e`, which are over normal forms."""
    if isinstance(e, Rat):
        return Rat(e.value)
    if isinstance(e, Sym):
        return Sym(e.name, e.kind)
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
        assert fresh_key(copy) == fresh_key(n) and copy._expansion is None, seed
        assert _poly(n) == _poly(copy), seed


def test_stored_expansion_survives_every_operation():
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
        for s in ATOMS:
            diff(n, s)
        gradient(n, ATOMS)
        derivation(n, lambda s: True, lambda s: s)
        for other in (e, previous):  # equal, then mostly different
            same, gap = equivalent(n, other), normalize(n - other)
            assert bool(same) == (gap == ZERO), seed
            reason = f"differ by {len(_poly(gap))} terms" if gap != ZERO else "coincide"
            assert same.reason == f"normal forms {reason}", seed
            differing += not same
        previous = e
        substitute(n, {ATOMS[1]: ATOMS[0] + 1})
        assert substitute(n, {}) is n, seed
        assert substitute(n, {absent: Rat(Fraction(2))}) is n, seed
        assert n._expansion is stored and stored == snapshot, seed
        assert reduced_pairs(stored), seed
    assert compared >= 50 and differing >= 40, differing


def test_untouched_subtrees_are_kept():
    y, t = (SPEC.symbol(n) for n in ("y", "t"))
    inner = normalize(Fun("sin", y + 1))
    e = Add((Mul((inner, y)), t))
    assert substitute(e, {}) == normalize(e)
    swapped = _substitute(e, {t: y})
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
    y, t = (SPEC.symbol(n) for n in ("y", "t"))
    n = normalize(y + t)
    if read:
        n.terms
    big = Rat(Fraction(10**600))
    with pytest.raises(ExpansionLimitError, match="a normal form would hold a constant longer"):
        normalize(n * big * big)


def test_mixed_exponents_fold():
    y = SPEC.symbol("y")
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
    flow = derivation(density, lambda s: True, lambda s: s)
    monkeypatch.undo()
    # rendering multiplies Fractions, so it is compared with the patch undone
    assert density == expected
    assert partials == gradient(expected, symbols)
    assert flow == derivation(expected, lambda s: True, lambda s: s)
    assert len(symbols) == 8 and "q4^3" in to_text(flow)


# --------------------------------------------------------------------------
# what an opaque atom and a sum keep once first asked for

#: fills one memo of a node the way the library does on first use
FILLS = {
    "_k": expr._key,
    "_syms": free_symbols,
    "_parts": lambda a: expr._partials(expr._atom_poly(a), set(ATOMS)),
}
MEMOS = {Add: ("_syms",), Fun: tuple(FILLS), Pow: tuple(FILLS)}


def atoms_of(n):
    """The function and power atoms of the normal form `n`'s expansion and
    of their arguments' expansions, each object once."""
    found, stack = {}, [n]
    while stack:
        for mono in _poly(stack.pop()):
            for a, _ in mono:
                if isinstance(a, (Fun, Pow)) and id(a) not in found:
                    found[id(a)] = a
                    stack.append(a.arg if isinstance(a, Fun) else a.base)
    return list(found.values())


def memo_nodes():
    """(seed, node, twin) for each case's normal form that is a sum and
    each atom of it: `twin` is made by the constructor from the same
    fields.  A sum has no memo filled; an atom is one object per key, so
    its twin is the atom itself, and its memos may be filled already."""
    for seed, e in cases():
        n = normalize(e)
        if isinstance(n, Add):
            yield seed, n, Add(normalize(e).terms)
        for a in atoms_of(n):
            yield seed, a, type(a)(*(getattr(a, f) for f in a._fields))


def unfilled(n) -> bool:
    return all(getattr(n, m) is None for m in MEMOS[type(n)])


def clone_checked(clone):
    """The check that a clone of a node equals its twin: a sum's clone is
    a new object with no memo filled, an atom's the atom itself."""
    def check(n, twin):
        c = clone(n)
        return c is n if isinstance(n, (Fun, Pow)) else c == twin and unfilled(c)
    return check


#: what a node shares with its twin whatever it keeps
MEMO_CHECKS = {
    "equality": LAZY_CHECKS["equality"],
    "hash": LAZY_CHECKS["hash"],
    "repr": LAZY_CHECKS["repr"],
    "copy": clone_checked(copy.copy),
    "deepcopy": clone_checked(copy.deepcopy),
    "pickle": clone_checked(lambda n: pickle.loads(pickle.dumps(n))),
}


@pytest.mark.parametrize("name", MEMO_CHECKS)
def test_memos_are_not_fields(name):
    kinds = set()
    for seed, n, twin in memo_nodes():
        assert unfilled(n) or n is twin, seed
        assert MEMO_CHECKS[name](n, twin), seed
        for memo in MEMOS[type(n)]:
            FILLS[memo](n)
            assert getattr(n, memo) is not None, (seed, memo)
            assert MEMO_CHECKS[name](n, twin), (seed, memo)
        kinds.add(type(n))
    assert kinds == set(MEMOS)


def fresh_key(e):
    """The sort key of `e` by its definition, read from no memo."""
    if isinstance(e, Rat):
        return (0, e.value.numerator, e.value.denominator)
    if isinstance(e, Sym):
        return (1, e.name)
    if isinstance(e, Fun):
        return (2, e.name, fresh_key(e.arg))
    if isinstance(e, Pow):
        return (3, fresh_key(e.base), (e.exponent.numerator, e.exponent.denominator))
    if isinstance(e, Mul):
        return (4, tuple(fresh_key(f) for f in e.factors))
    return (5, tuple(fresh_key(t) for t in e.terms))


def walked_symbols(e) -> frozenset:
    out = set()
    expr._collect_symbols(e, out)
    return frozenset(out)


def assert_kept_answers_are_fresh(n, symbols, where):
    """The free symbols, sort keys and gradient of the normal form `n`, on
    the first call and again from what `n` and its atoms keep, equal the
    tree walk, the key's definition and the tree rule.  The first gradient
    asks for one symbol only, so an atom that kept the partials of that
    one alone fails the second.  That holds only if no atom of `n` over a
    symbol has kept partials before: atoms live as long as the process, so
    `n` must be over symbols that no other test or case makes."""
    walked = walked_symbols(n)
    expected = {s: defined(tree_diff, n, s) for s in symbols}
    assert all(a._parts is None for a in atoms_of(n) if walked_symbols(a)), where
    for call in (symbols[:1], symbols):
        assert free_symbols(n) == walked, where
        for a in atoms_of(n):
            assert expr._key(a) == fresh_key(a) and free_symbols(a) == walked_symbols(a), where
        for s, d in gradient(n, call).items():
            assert expected[s] is None or d == expected[s], (where, s)


def renamed_atoms(seed):
    """`ATOMS` under names that only the case of `seed` in this test gives."""
    return [Sym(f"{s.name}case{seed}", s.kind) for s in ATOMS]


def test_kept_answers_equal_fresh_ones_on_mixed_cases():
    atoms = 0
    for seed, e in cases(renamed_atoms):
        n = normalize(e)
        atoms += len(atoms_of(n))
        assert_kept_answers_are_fresh(n, renamed_atoms(seed), seed)
    assert atoms >= 100


def test_kept_answers_equal_fresh_ones_on_grammar_models():
    """The first 100 grammar models, each with fields named for it alone."""
    rng, compared = random.Random(5), 0
    for i in range(100):
        fields = ((f"ymodel{i}",), (f"ymodel{i}", f"umodel{i}"))
        try:
            model = parse_model(random_model(rng, fields=fields))
        except DeviqError:
            continue
        (n,) = model.payload
        symbols = sorted(free_symbols(n), key=lambda s: s.name)
        assert_kept_answers_are_fresh(n, symbols, i)
        compared += bool(atoms_of(n))
    assert compared >= 50


def test_check_takes_each_atoms_partials_once(monkeypatch):
    """`check` differentiates a chain's cos atoms for the Euler-Lagrange
    rows, again by d_V for the deviation rows and again for the
    Euler-Lagrange rows of VL; each atom object goes through the chain
    rule once.  Atoms live as long as the process, so the chain's
    coordinates get names no other test makes."""
    chain = make_chain("pendulum", "lagrangian", 4, random.Random(1))
    model = parse_model(model_text(chain).replace("q", "qonce"))
    seen = []
    chain_rule = expr._atom_partials

    def counted(atom, *args):
        seen.append(atom)
        return chain_rule(atom, *args)

    monkeypatch.setattr(expr, "_atom_partials", counted)
    assert check_model(model).passed
    assert len(seen) >= 3 and len({id(a) for a in seen}) == len(seen)
