"""Golden outputs: what the CLI prints on the corpus, byte for byte.

Each case runs one ``deviq`` command in process and compares its stdout
with a file under ``tests/golden/``:

- ``derive`` and ``deviate`` in text, latex and json for every model;
- the ``check`` report for every model with a commutation theorem;
- the ``simulate`` CSV for the ODE corpus on the window [0, 0.1], dt 1e-2;
- the ``residual`` CSV for the ODE corpus on that window, whose gaps differ
  in floats, and on [0, 1] at dt 0.125, whose gaps are all equal, so both
  ways of differencing the Jacobi tails are pinned;
- the same derive/deviate/check outputs for FPU and pendulum chains with
  N = 2 and 4 in both forms.  The chain models under ``golden/models/``
  were written once by ``perfbench/chains.py`` (``make_chain`` with
  ``random.Random(0)``), so this suite does not import perfbench.

A change that means to alter any of these bytes regenerates the files
with ``PYTHONPATH=src python3 tests/test_golden.py`` and says why.
"""

import contextlib
import io
from pathlib import Path

import pytest

import deviq.cli
from conftest import (
    EQUATION_MODELS,
    HAMILTONIAN_MODELS,
    LAGRANGIAN_MODELS,
    ODE_CORPUS,
    model_path,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
CHAIN_MODELS = sorted((GOLDEN / "models").glob("*.eqn"))
FORMATS = (("text", "txt"), ("latex", "tex"), ("json", "json"))
SIMULATE_WINDOW = ("--t1", "0.1", "--dt", "1e-2")
#: (file name, window) of the residual cases: uneven gaps, then equal gaps
RESIDUAL_WINDOWS = (("residual.csv", SIMULATE_WINDOW), ("residual-uniform.csv", ("--t1", "1", "--dt", "0.125")))


def _assignments(values: dict) -> str:
    return ",".join(f"{k}={v!r}" for k, v in values.items())


def _cases():
    models = [(name, model_path(name)) for name in
              (*LAGRANGIAN_MODELS, *HAMILTONIAN_MODELS, *EQUATION_MODELS)]
    models += [(p.stem, p) for p in CHAIN_MODELS]
    out = []
    for name, path in models:
        for cmd in ("derive", "deviate"):
            for fmt, ext in FORMATS:
                out.append((f"{name}/{cmd}.{ext}", [cmd, str(path), "--format", fmt]))
        if name not in EQUATION_MODELS:
            out.append((f"{name}/check.txt", ["check", str(path)]))
        if name in ODE_CORPUS:
            init, jac, _ = ODE_CORPUS[name]
            data = ["--init", _assignments(init), "--jacobi-init", _assignments(jac)]
            out.append((f"{name}/simulate.csv", ["simulate", str(path), *data, *SIMULATE_WINDOW]))
            for file, window in RESIDUAL_WINDOWS:
                out.append((f"{name}/{file}", ["residual", str(path), *data, *window]))
    return out


CASES = _cases()


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = deviq.cli.main(argv)
    assert code == 0, f"deviq {' '.join(argv)} exited {code}"
    return out.getvalue()


def first_difference(expected: str, actual: str) -> str:
    exp, act = expected.split("\n"), actual.split("\n")
    for i, (a, b) in enumerate(zip(exp, act)):
        if a != b:
            return f"line {i + 1}:\n  expected: {a!r}\n  actual:   {b!r}"
    return f"line {min(len(exp), len(act)) + 1}: expected {len(exp)} lines, got {len(act)}"


def test_case_list_covers_the_corpus():
    assert len(CHAIN_MODELS) == 8
    assert len(CASES) == 19 * 6 + 17 + 3 * len(ODE_CORPUS) + 8 * 7


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv):
    expected = (GOLDEN / name).read_bytes().decode("utf-8")
    actual = _run(argv)
    if actual != expected:
        pytest.fail(f"{name} differs from the golden file at {first_difference(expected, actual)}")


#: `grammar.digest(400, 5)`, see test_grammar_digest
GRAMMAR_DIGEST = "490627c52c9cb9314026a995462e589292618e36520ba565d4833cd0b7f351de"


def test_grammar_digest():
    """All that deviq makes of 400 generated models (`tests/grammar.py`,
    seed 5) hashes to one recorded value, so an output change on models
    past the corpus fails here as a golden file does; unlike the corpus,
    they use tan, ln and sqrt.  A change that means to alter these outputs
    records the value that `python tests/grammar.py --digest` prints, and
    says why."""
    import grammar

    assert grammar.digest(400, 5) == GRAMMAR_DIGEST


def regenerate():
    """Rewrite every golden file from the current program's output."""
    for name, argv in CASES:
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_run(argv), encoding="utf-8", newline="")
    print(f"wrote {len(CASES)} golden files under {GOLDEN}")


if __name__ == "__main__":
    regenerate()
