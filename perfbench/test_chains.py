"""The chain generators' smallest members parse, compile, pass `check`
through the exact normal form, and agree with the sympy oracle.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/test_chains.py
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import deviq  # noqa: E402
import oracles  # noqa: E402
from chains import FAMILIES, FORMS, initial_data, make_chain, model_text  # noqa: E402


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("family", FAMILIES)
def test_small_members(family, form, n):
    chain = make_chain(family, form, n, random.Random(10 * n))
    model = deviq.parse_model(model_text(chain))
    assert [s.name for s in model.spec.fibre] == list(chain.fields)

    report = deviq.check_model(model)
    assert report.passed
    assert all(e.result.reason == "normal forms coincide" for e in report.entries)

    system = deviq.deviation_equations(model)
    compiled = deviq.compile_system(system)
    base, jac = initial_data(chain, random.Random(0))
    assert set(compiled.state_names) == set(base) | set(jac)

    rng = random.Random(1)
    _, eom, dev = oracles.ChainOracle().derive(chain)
    assert oracles.same_system(oracles.text_equations(deviq.render(system, "text")), dev, rng) == ""
    assert oracles.planted_is_caught(eom, rng)
