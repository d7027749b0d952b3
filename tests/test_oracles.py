"""deviq's derived, deviation and compiled systems against the sympy
oracles of the benchmark (`perfbench/oracles.py`), which share no code
with deviq: they read the model text or a chain's coefficients and look
at deviq's rendered text and compiled right-hand side only.

Covered: the FPU and pendulum chains with N = 2 and 3 in both forms, and
every Lagrangian and Hamiltonian model of the corpus.  The compiled
right-hand side is compared with `oracles.rhs_at`, which solves the
deviation pair for its top derivatives numerically, at two seeded points.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import deviq  # noqa: E402
import oracles  # noqa: E402
from chains import FAMILIES, FORMS, make_chain, model_text  # noqa: E402
from conftest import HAMILTONIAN_MODELS, LAGRANGIAN_MODELS, model_path  # noqa: E402

#: compiled and oracle right-hand sides agree to this relative error
RHS_TOL = 1e-9


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
