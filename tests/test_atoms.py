"""One object per atom.

`Sym`, `Fun` and `Pow` are made once per class and key, from tables that
live as long as the process: a field that is a normal-form sum keys by
its expansion, any other field as it is.  Here the atoms of every normal
form deviq derives from the chains, the corpus and the grammar models
are one object exactly when their structures are equal, threads making
the same atoms get one object each, and a pendulum chain's stages take
each atom's chain rule once and build no sum's terms to make an atom.
"""

import operator
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

from deviq import (
    Add,
    DeviqError,
    Fun,
    Mul,
    Pow,
    Rat,
    Sym,
    SymbolKind,
    check_model,
    compile_system,
    deviation_equations,
    derive_equations,
    normalize,
    parse_model,
)
from deviq import expr
from deviq.expr import _poly
from conftest import EQUATION_MODELS, HAMILTONIAN_MODELS, LAGRANGIAN_MODELS, corpus_model
from grammar import random_model

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from chains import FORMS, make_chain, model_text  # noqa: E402


def structure(e) -> tuple:
    """`e` as nested tuples of its class and fields, a sum by its terms:
    the equality an atom had as a record of its fields.  It is `_key` with
    each symbol's kind, since a name can be a parameter in one model and a
    coordinate in another."""
    if isinstance(e, Sym):
        return ("Sym", e.name, e.kind)
    if isinstance(e, Rat):
        return ("Rat", e.value)
    if isinstance(e, (Add, Mul)):
        return (type(e).__name__, tuple(map(structure, e.terms if isinstance(e, Add) else e.factors)))
    if isinstance(e, Pow):
        return ("Pow", structure(e.base), e.exponent)
    return ("Fun", e.name, structure(e.arg))


def atoms_of(forms, found: dict) -> None:
    """Add to `found`, by id, the function and power atoms of the normal
    forms `forms` and of their arguments' normal forms."""
    stack = list(forms)
    while stack:
        for mono in _poly(stack.pop()):
            for a, _ in mono:
                if isinstance(a, (Fun, Pow)) and id(a) not in found:
                    found[id(a)] = a
                    stack.append(a.arg if isinstance(a, Fun) else a.base)


def stage_forms(model) -> list:
    """The normal forms of `model`'s derived and deviation systems and of
    both sides of its check's pairs, each stage that refuses left out."""
    forms = []
    for stage in (derive_equations, deviation_equations):
        try:
            forms.extend(stage(model).equations)
        except DeviqError:
            pass
    try:
        forms.extend(s for pair in check_model(model).entries for s in (pair.left, pair.right))
    except DeviqError:
        pass
    return forms


def test_atoms_are_one_object_exactly_when_their_structures_are_equal():
    found, sources = {}, {}
    for family in ("fpu", "pendulum"):
        for form in FORMS:
            for n in range(2, 17):
                model = parse_model(model_text(make_chain(family, form, n, random.Random(n))))
                atoms_of(stage_forms(model), found)
        sources[family] = len(found)
    for name in (*LAGRANGIAN_MODELS, *HAMILTONIAN_MODELS, *EQUATION_MODELS):
        atoms_of(stage_forms(corpus_model(name)), found)
    sources["corpus"] = len(found)
    rng = random.Random(5)
    for _ in range(300):
        try:
            model = parse_model(random_model(rng))
        except DeviqError:
            continue
        atoms_of(stage_forms(model), found)
    sources["grammar"] = len(found)
    # each structure is one object, and each object one structure
    objects = {}
    for a in found.values():
        objects.setdefault(structure(a), []).append(a)
    assert all(len(same) == 1 for same in objects.values())
    assert len(objects) == len(found)
    # the FPU chains are polynomials, with no atom; every other source adds
    # atoms of its own, functions and powers, over sums too
    counts = list(sources.values())
    assert counts[:2] == [0, 62] and counts[2] - counts[1] >= 5 and counts[3] - counts[2] >= 300, sources
    kinds = {(type(a), type(a.arg if isinstance(a, Fun) else a.base)) for a in found.values()}
    assert {(Fun, Add), (Pow, Add), (Fun, Sym), (Fun, Mul), (Pow, Mul), (Fun, Rat), (Pow, Rat)} <= kinds


def test_threads_making_one_atom_get_one_object():
    """Threads that make the same new atoms at once, over symbols and over
    normal-form sums, switching as often as the interpreter lets them,
    all get the one object of each."""
    symbols = [Sym(f"threadatom{i}", SymbolKind.FIBRE) for i in range(400)]
    made, start = [], threading.Barrier(8)

    def make():
        start.wait(timeout=60)
        row = []
        for s in symbols:
            row += [Fun("sin", s), Pow(normalize(s + 1), Fraction(-1)), Fun("cos", normalize(s - 1))]
        made.append(row)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=make) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(made) == 8
    for row in made:
        assert all(map(operator.is_, row, made[0]))


def test_a_chain_takes_each_chain_rule_once_and_builds_no_terms_for_an_atom(monkeypatch):
    """A pendulum chain (N = 4) through derive, deviate, check and compile,
    counted by wrapping: each atom goes through the chain rule at most
    once, and making an atom, over a normal-form sum too, builds no sum's
    terms, as atoms hash by identity.  Atoms live as long as the process,
    so the chain's coordinates get names no other test makes."""
    assert Fun.__hash__ is object.__hash__ and Pow.__hash__ is object.__hash__
    assert Fun.__eq__ is object.__eq__ and Pow.__eq__ is object.__eq__
    text = model_text(make_chain("pendulum", "lagrangian", 4, random.Random(0))).replace("q", "qguard")
    chain_rule, shape, made_once, terms = expr._atom_partials, expr._shape, expr._made_once, Add.terms.fget
    differentiated, making, built, over_sums = [], [], [], []

    def counted_chain_rule(atom):
        differentiated.append(atom)
        return chain_rule(atom)

    def counted(make):
        def making_one(*args, **kwargs):
            making.append(make)
            try:
                return make(*args, **kwargs)
            finally:
                making.pop()
        return making_one

    def counted_shape(e):
        over_sums.append(isinstance(e, Add) and e._expansion is not None)
        return counted(shape)(e)

    def counted_terms(self):
        if self._terms is None:
            built.append(bool(making))
        return terms(self)

    monkeypatch.setattr(expr, "_atom_partials", counted_chain_rule)
    monkeypatch.setattr(expr, "_shape", counted_shape)
    monkeypatch.setattr(expr, "_made_once", counted(made_once))
    monkeypatch.setattr(Add, "terms", property(counted_terms))
    derive_equations(parse_model(text))
    system = deviation_equations(parse_model(text))
    assert check_model(parse_model(text)).passed
    compile_system(system)
    monkeypatch.undo()
    keys = [expr._key(a) for a in differentiated]
    assert len(differentiated) >= 7 and len(set(map(id, differentiated))) == len(set(keys)) == len(keys)
    assert sum(over_sums) >= 3 and not any(built)
