"""deviq's derived, deviation and compiled systems against the sympy
oracles of the benchmark (`perfbench/oracles.py`), which share no code
with deviq: they read the model text or a chain's coefficients and look
at deviq's rendered text and compiled right-hand side only.

Covered: the FPU and pendulum chains with N = 2 and 3 in both forms,
every Lagrangian and Hamiltonian model of the corpus, and the first
`GRAMMAR_MODELS` models of `grammar.random_model` drawn as
`tests/grammar.py --digest` draws them.  The compiled right-hand side is
compared with `oracles.rhs_at`, which solves the deviation pair for its
top derivatives numerically, at two seeded points, or for a grammar model
at one seeded point where the oracle's value is real and finite.
"""

import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import deviq  # noqa: E402
import oracles  # noqa: E402
from chains import FAMILIES, FORMS, make_chain, model_text  # noqa: E402
from conftest import HAMILTONIAN_MODELS, LAGRANGIAN_MODELS, model_path  # noqa: E402
from grammar import random_model  # noqa: E402

#: compiled and oracle right-hand sides agree to this relative error
RHS_TOL = 1e-9
#: grammar models compared with the oracle; 25 take about 6 s
GRAMMAR_MODELS = 25


def _check(text, model, eom, dev, rng):
    """The derive and deviate text of `text` against the oracle's systems,
    and the compiled deviation pair against `rhs_at`; `model` is the
    oracle's reading of the model, its parameters still unbound."""
    m = deviq.parse_model(text)
    derived = deviq.render(deviq.derive_equations(m), "text")
    assert oracles.same_system(oracles.text_equations(derived), eom, rng) == ""
    system = deviq.deviation_equations(m)
    deviated = deviq.render(system, "text")
    assert oracles.same_system(oracles.text_equations(deviated), dev, rng) == ""
    if len(model.base) != 1:
        return
    dev = oracles.bind_params(model, dev)
    states, tops = oracles.layout(model, dev)
    fos = deviq.compile_system(system)
    assert list(fos.state_names) == states
    for _ in range(2):
        # positive states keep 1/r, sqrt and sin(theta)^2 away from zero
        z = [rng.uniform(0.3, 1.2) for _ in states]
        t = rng.uniform(0.0, 1.0)
        assert oracles.close(fos(t, z), oracles.rhs_at(dev, states, tops, t, z), RHS_TOL) == 0.0


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("family", FAMILIES)
def test_chain_against_oracle(family, form, n):
    rng = random.Random(100 * n + 7)
    chain = make_chain(family, form, n, rng)
    model, eom, dev = oracles.ChainOracle().derive(chain)
    _check(model_text(chain), model, eom, dev, rng)


@pytest.mark.parametrize("name", LAGRANGIAN_MODELS + HAMILTONIAN_MODELS)
def test_corpus_model_against_oracle(name):
    text = model_path(name).read_text()
    model = oracles.parse_eqn(text)
    eom = oracles.equations_of_motion(model)
    _check(text, model, eom, oracles.deviation(model, eom), random.Random(name))


def _total_t(e):
    """D_t e for a density on the base t that holds no t: each field or
    jet symbol's partial times the symbol one derivative higher."""
    return sp.Add(*(sp.diff(e, s) * sp.Symbol(oracles._shift(s.name)) for s in e.free_symbols))


def _euler_lagrange_rows(model):
    """dL/dy - D_t dL/dy_t + D_t^2 dL/dy_tt, one row per field y in order,
    a row that is 0 kept (`oracles.euler_lagrange` leaves it out)."""
    L = model.payload[0]
    return [
        sp.diff(L, sp.Symbol(f))
        - _total_t(sp.diff(L, sp.Symbol(f"{f}_t")))
        + _total_t(_total_t(sp.diff(L, sp.Symbol(f"{f}_tt"))))
        for f in model.fibre
    ]


def _real_point(dev, states, tops, rng):
    """(t, z, the oracle's right-hand side there) at the first of 20 seeded
    points in [0.3, 1.2] where that value is real and finite."""
    for _ in range(20):
        z = [rng.uniform(0.3, 1.2) for _ in states]
        t = rng.uniform(0.0, 1.0)
        try:
            want = oracles.rhs_at(dev, states, tops, t, z)
        except (TypeError, np.linalg.LinAlgError):
            continue  # complex at this point, or the top derivatives not solvable
        if all(math.isfinite(v) for v in want):
            return t, z, want
    raise AssertionError("no point where the oracle's right-hand side is real and finite")


def test_grammar_models_against_oracle():
    draws = random.Random(5)
    refused = compared = compiled = 0
    for k in range(GRAMMAR_MODELS):
        text = random_model(draws)
        try:
            m = deviq.parse_model(text)
            derived = deviq.render(deviq.derive_equations(m), "text")
            system = deviq.deviation_equations(m)
            deviated = deviq.render(system, "text")
        except deviq.DeviqError:
            refused += 1
            continue
        model = oracles.parse_eqn(text)
        if model.kind == "lagrangian":
            eom = _euler_lagrange_rows(model)
        else:
            eom = oracles.hamilton_equations(model)
        dev = oracles.deviation(model, eom)
        rng = random.Random(k)
        assert oracles.same_system(oracles.text_equations(derived), eom, rng) == "", text
        assert oracles.same_system(oracles.text_equations(deviated), dev, rng) == "", text
        compared += 1
        try:
            fos = deviq.compile_system(system)
        except deviq.DeviqError:
            continue  # several top derivatives in one equation, or a singular one
        states, tops = oracles.layout(model, dev)
        assert list(fos.state_names) == states, text
        t, z, want = _real_point(dev, states, tops, rng)
        assert oracles.close(fos(t, z), want, RHS_TOL) == 0.0, text
        compiled += 1
    assert compared >= 20, f"{refused} of {GRAMMAR_MODELS} models refused"
    assert compiled >= 15
