"""The forms the code generator writes.

`horner._horner` rewrites every normal-form sum over differences of state
variables and into Horner form before `numeric._emit` writes it.  Its
forms must mean exactly the expressions they come from: each normalizes
back to its source, on the compiled right-hand sides of the ODE corpus, on
the systems of generated models, on seeded dense polynomials and on
seeded sums of powers of differences, and a compiled system evaluates as
`evaluate` does.  A difference is one node shared by every form of a call,
and only symbols of one kind pair up.  The generated RK4, finite-difference
and residual loops of a chain are the same text under any string hashing,
write no power, and do no more binary float operations than their forms
over differences took when they were introduced.  The finite-difference
oracle's base part takes its forms from its deviation pair.
"""

import operator
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
    FirstOrderSystem,
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
from deviq import numeric
from deviq.horner import _HORNER_DEPTH, _horner
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
    """sin(y) made twice is one atom object: it is factored out of both
    monomials once, and no power of it is made."""
    y, u = Sym("y", SymbolKind.FIBRE), Sym("u", SymbolKind.FIBRE)
    e = normalize(Fun("sin", y) * u + Fun("sin", y) * y)
    atoms = [a for mono in e._expansion for a, _ in mono if isinstance(a, Fun)]
    assert len(atoms) == 2 and atoms[0] is atoms[1] is Fun("sin", y)
    (form,) = _horner([e])
    assert isinstance(form, Mul) and form.factors[0] is Fun("sin", y)
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


def _difference(e):
    """(a, b) when `e` is a node b - a that `_horner` writes, else None."""
    if isinstance(e, Add) and len(e.terms) == 2 and isinstance(e.terms[1], Sym):
        first = e.terms[0]
        if isinstance(first, Mul) and len(first.factors) == 2 and first.factors[0] == Rat(Fraction(-1)) \
                and isinstance(first.factors[1], Sym):
            return first.factors[1].name, e.terms[1].name
    return None


def _differences(forms):
    """{(a, b): the node objects b - a} over `forms`, and the names of the
    symbols outside such nodes."""
    nodes, names = {}, set()
    stack = list(forms)
    while stack:
        e = stack.pop()
        if (pair := _difference(e)) is not None:
            nodes.setdefault(pair, set()).add(id(e))
        elif isinstance(e, Sym):
            names.add(e.name)
        elif isinstance(e, (Add, Mul)):
            stack.extend(e.terms if isinstance(e, Add) else e.factors)
        elif isinstance(e, (Fun, Pow)):
            stack.append(e.arg if isinstance(e, Fun) else e.base)
    return nodes, names


def _difference_polynomial(rng, kinds):
    """A sum of seeded powers of differences of 2 to 4 symbols of one kind
    with rational coefficients, up to two stray monomials and, in a third
    of them, a function of a difference, normalized."""
    kind = rng.choice(kinds)
    names = rng.sample([f"q{i}" for i in range(1, 5)], rng.randint(2, 4))
    xs = [Sym(("v_" if kind is SymbolKind.VERTICAL else "") + n, kind) for n in names]

    def q():
        return Rat(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7)))

    terms = []
    for _ in range(rng.randint(1, 4)):
        a, b = rng.sample(xs, 2)
        terms.append(q() * Pow(b - a, Fraction(rng.randint(1, 4))))
    for _ in range(rng.randint(0, 2)):
        terms.append(q() * Mul(tuple(rng.choice(xs) for _ in range(rng.randint(1, 3)))))
    if rng.random() < 1 / 3:
        a, b = rng.sample(xs, 2)
        terms.append(q() * Fun(rng.choice(("sin", "cos")), b - a) * rng.choice(xs))
    return normalize(Add(tuple(terms)))


def test_horner_form_is_exact_over_differences():
    """Sums that hold their symbols only through differences, or mostly so,
    are written over differences, and still normalize back exactly."""
    rng = random.Random(5)
    polynomials = [_difference_polynomial(rng, (SymbolKind.FIBRE, SymbolKind.VERTICAL)) for _ in range(200)]
    _assert_exact(polynomials)
    assert sum(bool(_differences([form])[0]) for form in _horner(polynomials)) >= 150


def test_horner_form_holds_symbols_only_in_shared_differences():
    """(q2 - q1)^3 + (q3 - q2)^3 is written over the two differences alone,
    and cos(q2 - q1) reads the same node in the same call."""
    q1, q2, q3 = (Sym(f"q{i}", SymbolKind.FIBRE) for i in (1, 2, 3))
    e = normalize(Pow(q2 - q1, Fraction(3)) + Pow(q3 - q2, Fraction(3)))
    forms = _horner([e, normalize(Fun("cos", q2 - q1))])
    assert normalize(forms[0]) == e
    nodes, names = _differences(forms)
    assert names == set()
    assert list(map(len, nodes.values())) == [1, 1] and set(nodes) == {("q1", "q2"), ("q2", "q3")}


def test_horner_pairs_symbols_of_one_kind_only():
    """(v_y - y)^3 mixes a fibre coordinate with a vertical one: it stays
    a sum over the two symbols."""
    y, v = Sym("y", SymbolKind.FIBRE), Sym("v_y", SymbolKind.VERTICAL)
    e = normalize(Pow(v - y, Fraction(3)))
    (form,) = _horner([e])
    assert normalize(form) == e
    assert _differences([form]) == ({}, {"y", "v_y"})


@pytest.mark.parametrize("command", ["simulate", "residual"])
def test_power_of_a_difference_past_the_bound_simulates(tmp_path, command):
    """(u - y)^499 gives right-hand sides of degree 497 and 498 in u and y,
    past `_DIFFERENCE_POWER`, so neither is rewritten over u - y.  Tried,
    a monomial holding y^k would become the k + 1 terms of (u - d)^k."""
    src = tmp_path / "difference.eqn"
    src.write_text("base t\nfibre y u\nlagrangian 0.5*y_t^2 + 0.5*u_t^2 + (u - y)^499\n")
    res = subprocess.run(
        [sys.executable, "-m", "deviq", command, str(src), "--init", "y=0,y_t=0,u=0,u_t=0",
         "--t1", "0.003", "--dt", "0.001"], capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert "Error" not in res.stderr


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


def _chain_text(family: str, n: int) -> str:
    """A Lagrangian chain of n masses shaped like the FPU and pendulum
    chains of `perfbench/chains.py`, with seeded rational coefficients:
    quartic springs between neighbours and to both walls, or pendula coupled
    by the cosines of their neighbours' differences."""
    rng = random.Random(n)

    def c():
        return f"({rng.choice((-1, 1)) * rng.randint(1, 9)}/{rng.randint(1, 9)})"

    kinetic = " + ".join(f"{c()}*q{i}_t^2" for i in range(1, n + 1))
    if family == "fpu":
        q = ["0", *(f"q{i}" for i in range(1, n + 1)), "0"]
        springs = [f"({b} - {a})" for a, b in zip(q, q[1:])]
        potential = " + ".join(f"{c()}*{d}^2 + {c()}*{d}^3 + {c()}*{d}^4" for d in springs)
    else:
        potential = " + ".join([*(f"{c()}*cos(q{i})" for i in range(1, n + 1)),
                                *(f"{c()}*cos(q{i + 1} - q{i})" for i in range(1, n))])
    fibre = " ".join(f"q{i}" for i in range(1, n + 1))
    return f"base t\nfibre {fibre}\nlagrangian {kinetic} - ({potential})\n"


@pytest.mark.parametrize("family,n", [("fpu", 16), ("pendulum", 8)])
def test_base_part_takes_the_forms_of_its_pair(monkeypatch, family, n):
    """The finite-difference oracle's base part takes the first half of its
    deviation pair's forms rather than making them again, and generates the
    same loop as a base system that makes its own."""
    sources = []
    define = numeric._define
    monkeypatch.setattr(numeric, "_define", lambda source, env: sources.append(source) or define(source, env))
    fos = compile_system(deviation_equations(parse_model(_chain_text(family, n))))
    half = fos.dimension // 2
    part = fos.base_part
    assert part._forms == fos._forms[:half] and all(map(operator.is_, part._forms, fos._forms))
    own = FirstOrderSystem(part.base, part.states, part.rhs)
    assert own == part and own._fd_loop is not part._fd_loop
    assert len(sources) == 2 and sources[0] == sources[1]


#: prints the number of binary float operators in each generated loop of the
#: model at argv[1], one line each: the RK4 loop of its deviation pair, the
#: finite-difference oracle's two-lane loop of the base part and the loop of
#: a residual over three eps; then the loops' sources
LOOP_SCRIPT = """
import dis, sys
from deviq import JacobiProblem, deviation_equations, load_model, numeric
sources = []
define = numeric._define
numeric._define = lambda source, env: sources.append(source) or define(source, env)
system = deviation_equations(load_model(sys.argv[1]))
base = numeric.compile_system(system).base_part.states
prob = JacobiProblem(system, {s.name: 0.0 for s in base}, {}, 0.0, 1.0)
for loop in (prob.compiled._loop, prob.compiled.base_part._fd_loop, numeric._residual_loop(prob, 3)):
    print(sum(i.opname.startswith("BINARY_") and i.opname not in ("BINARY_SUBSCR", "BINARY_SLICE")
              for i in dis.get_instructions(loop)))
print("".join(sources), end="")
"""

#: binary float operators of fpu-L4's generated loops: the RK4 loop (all four
#: stages of one step and its update), the FD oracle's loop and the residual's
#: loop over three eps.  Written as expanded normal forms they took 1499,
#: 1211 and 1980; in Horner form 1019, 1003 and 1419; over differences of the
#: coordinates, as now, 659, 675 and 939.
FPU_L4_BINARY_OPS = (659, 675, 939)


def test_fpu_chain_rk4_loop_is_hash_independent_and_in_horner_form():
    """fpu-L4's RK4, FD and residual loops are the same text under two
    string hash seeds, write no power, and do no more binary float
    operations than their forms over differences took when introduced, so
    a right-hand side or residual equation that slips back to an expanded
    or merely factored form fails here."""
    path = Path(__file__).resolve().parent / "golden" / "models" / "fpu-L4.eqn"
    outputs = [
        subprocess.run([sys.executable, "-c", LOOP_SCRIPT, str(path)], capture_output=True, text=True,
                       env={**os.environ, "PYTHONHASHSEED": seed}, check=True).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    *counts, source = outputs[0].split("\n", len(FPU_L4_BINARY_OPS))
    assert all(int(n) <= bound for n, bound in zip(counts, FPU_L4_BINARY_OPS))
    assert "**" not in source
