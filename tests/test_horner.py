"""The Horner forms the code generator writes.

`numeric._horner` rewrites every normal-form sum before `_emit` writes
it.  Its forms must mean exactly the expressions they come from: each
normalizes back to its source, on the compiled right-hand sides of the
ODE corpus, on the systems of generated models and on seeded dense
polynomials, and a compiled system evaluates as `evaluate` does.  The
generated RK4 loop of a chain is the same text under any string hashing,
writes no power, and does no more binary float operations than its
Horner form took when it was introduced.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import grammar
from deviq import (
    DeviqError,
    Mul,
    Rat,
    compile_system,
    derive_equations,
    deviation_equations,
    evaluate,
    normalize,
    parse_model,
)
from deviq.expr import Add, Fun, Pow, Sym, SymbolKind, _key
from deviq.numeric import _HORNER_DEPTH, _horner
from conftest import ODE_CORPUS, corpus_model


def _assert_exact(exprs):
    for e, form in zip(exprs, _horner(exprs)):
        assert normalize(form) == e, str(e)


@pytest.fixture(scope="module")
def grammar_systems():
    """The derived and deviation systems of the first 100 generated models
    that parse (`random.Random(5)`), each with its compiled deviation pair
    or None."""
    rng = random.Random(5)
    out = []
    while len(out) < 100:
        text = grammar.random_model(rng)
        try:
            model = parse_model(text)
        except DeviqError:
            continue
        systems = []
        for make in (derive_equations, deviation_equations):
            try:
                systems.append(make(model))
            except DeviqError:
                pass
        try:
            fos = compile_system(deviation_equations(model))
        except DeviqError:
            fos = None
        out.append((text, systems, fos))
    return out


@pytest.mark.parametrize("name", list(ODE_CORPUS))
def test_horner_form_is_exact_on_corpus_rhs(name):
    fos = compile_system(deviation_equations(corpus_model(name)))
    _assert_exact(fos.rhs)


def test_horner_form_is_exact_on_generated_models(grammar_systems):
    compiled = 0
    for _, systems, fos in grammar_systems:
        for system in systems:
            _assert_exact(system.equations)
        if fos is not None:
            _assert_exact(fos.rhs)
            compiled += 1
    assert compiled >= 50


def _dense_polynomial(rng, atoms):
    """A sum of up to 14 monomials in fresh atom objects, with rational
    coefficients and exponents from -2 to 3, normalized."""
    terms = []
    for _ in range(rng.randint(2, 14)):
        factors = [Rat(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7)))]
        for _ in range(rng.randint(0, 4)):
            factors.append(Pow(rng.choice(atoms)(), Fraction(rng.choice((1, 1, 2, 3, -1, -2)))))
        terms.append(Mul(tuple(factors)))
    return normalize(Add(tuple(terms)))


def _atoms():
    y, u = Sym("y", SymbolKind.FIBRE), Sym("u", SymbolKind.FIBRE)
    return [
        lambda: y,
        lambda: u,
        lambda: Fun("sin", y + u),
        lambda: Fun("cos", 3 * y * y * u + 2 * y * u - u),
        lambda: Fun("exp", Fun("sin", y) * y + Fun("sin", y) * u),
        lambda: Pow(1 + y * y + y * u, Fraction(-1)),
        lambda: Pow(2 + u * u * y + u, Fraction(1, 2)),
        lambda: Pow(y + u, Fraction(-3, 2)),
    ]


def test_horner_form_is_exact_on_dense_polynomials():
    rng = random.Random(5)
    atoms = _atoms()
    polynomials = [_dense_polynomial(rng, atoms) for _ in range(200)]
    assert sum(isinstance(p, Add) for p in polynomials) > 150
    _assert_exact(polynomials)


def test_horner_form_matches_atoms_by_equality():
    """Two equal sin(y) objects are one atom: it is factored out of both
    monomials once, and no power of it is made."""
    y, u = Sym("y", SymbolKind.FIBRE), Sym("u", SymbolKind.FIBRE)
    e = normalize(Fun("sin", y) * u + Fun("sin", y) * y)
    atoms = [a for mono in e._expansion for a, _ in mono if isinstance(a, Fun)]
    assert len(atoms) == 2 and atoms[0] is not atoms[1] and atoms[0] == atoms[1]
    (form,) = _horner([e])
    assert isinstance(form, Mul) and form.factors[0] == Fun("sin", y)
    assert normalize(form) == e


def test_horner_factors_the_most_shared_atom_and_breaks_ties_by_key():
    """In u*w + u*y + w*y every atom is in two monomials, and y has the
    greatest key: the form is y*(u + w) + u*w, and u + w, where no atom
    is shared, is its terms in order."""
    y, u, w = (Sym(n, SymbolKind.FIBRE) for n in "yuw")
    assert _key(y) > _key(w) > _key(u)
    (form,) = _horner([normalize(u * w + u * y + w * y)])
    assert form == Add((Mul((y, Add((u, w)))), Mul((u, w))))


def test_horner_factors_one_power_at_a_time():
    """y^3 + 2*y^2*u + y becomes y*(y*(2*u + y) + 1): no power is left."""
    y, u = Sym("y", SymbolKind.FIBRE), Sym("u", SymbolKind.FIBRE)
    (form,) = _horner([normalize(y**3 + 2 * y**2 * u + y)])
    two_u = Mul((Rat(Fraction(2)), u))
    assert form == Mul((y, Add((Mul((y, Add((two_u, y)))), Rat(Fraction(1))))))


def _depth(e):
    if isinstance(e, (Add, Mul)):
        return 1 + max(map(_depth, e.terms if isinstance(e, Add) else e.factors))
    if isinstance(e, (Fun, Pow)):
        return 1 + _depth(e.arg if isinstance(e, Fun) else e.base)
    return 0


def test_horner_form_nests_a_bounded_depth():
    """(y + 1)^499, the largest power of a sum a model may expand, is
    factored `_HORNER_DEPTH` deep and its quotient there written as its
    terms, so its form nests at most twice that deeper than the expanded
    sum, inside the parser's 200 parentheses; fully factored it would
    nest 998 deep."""
    y = Sym("y", SymbolKind.FIBRE)
    e = normalize(Pow(y + 1, Fraction(499)))
    (form,) = _horner([e])
    assert normalize(form) == e
    assert _depth(e) < _depth(form) <= _depth(e) + 2 * _HORNER_DEPTH


def _relative_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_compiled_system_evaluates_as_evaluate_does(grammar_systems):
    """fos(t, z), through the Horner forms, against `evaluate` of the
    normal forms with `math.fsum`, at seeded points."""
    rng = random.Random(5)
    systems = [compile_system(deviation_equations(corpus_model(name))) for name in ODE_CORPUS]
    systems += [fos for _, _, fos in grammar_systems if fos is not None]
    compared = 0
    for fos in systems:
        for _ in range(3):
            t = rng.uniform(0.1, 1.5)
            z = [rng.uniform(0.1, 1.5) for _ in fos.states]
            point = {fos.base: t, **dict(zip(fos.states, z))}
            try:
                want = [evaluate(e, point) for e in fos.rhs]
                got = fos(t, z)
            except (DeviqError, ArithmeticError, ValueError):
                continue
            for e, a, b in zip(fos.rhs, got, want):
                assert _relative_gap(a, b) <= 1e-12, (str(e), a, b)
            compared += 1
    assert compared >= 100


#: prints the number of binary float operators in the generated RK4 loop of
#: the model at argv[1], then the loop's source
LOOP_SCRIPT = """
import dis, sys
from deviq import compile_system, deviation_equations, load_model, numeric
sources = []
define = numeric._define
numeric._define = lambda source, env: sources.append(source) or define(source, env)
loop = compile_system(deviation_equations(load_model(sys.argv[1])))._loop
print(sum(i.opname.startswith("BINARY_") and i.opname not in ("BINARY_SUBSCR", "BINARY_SLICE")
          for i in dis.get_instructions(loop)))
print(sources[0], end="")
"""

#: binary float operators of fpu-L4's RK4 loop, all four stages of one step
#: and its update: 1499 when each right-hand side was written as its
#: expanded normal form, 1019 in Horner form
FPU_L4_BINARY_OPS = 1019


def test_fpu_chain_rk4_loop_is_hash_independent_and_in_horner_form():
    path = Path(__file__).resolve().parent / "golden" / "models" / "fpu-L4.eqn"
    outputs = [
        subprocess.run([sys.executable, "-c", LOOP_SCRIPT, str(path)], capture_output=True, text=True,
                       env={**os.environ, "PYTHONHASHSEED": seed}, check=True).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    count, source = outputs[0].split("\n", 1)
    assert int(count) <= FPU_L4_BINARY_OPS
    assert "**" not in source
