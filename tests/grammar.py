"""Seeded random models over the model-file grammar.

`random_model(rng)` writes the text of one model file on the base t:
a Lagrangian of jet order 1 or 2, or a Hamiltonian, over one or two
fields.  Its density is a sum of two expressions nested at most `depth`
levels (`DEPTH` by default), built from sums, products, quotients, the
six functions and the powers in `POWERS`, with the fields, their jets or
momenta, and small positive constants at the leaves.

`digest(n, seed)` hashes what deviq makes of `n` such models drawn from
one `random.Random(seed)`, so two checkouts can be compared in one line:

    python tests/grammar.py --digest            # 400 models, seed 5, depth 3
    python tests/grammar.py --digest --depth 4  # the same draws, nested deeper
"""

import argparse
import hashlib
import random
import sys
from pathlib import Path

DEPTH = 3
FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt")
POWERS = ("2", "3", "(1/2)", "(-1)", "(-3/2)")
CONSTANTS = ("2", "3", "1/2")
FIELDS = (("y",), ("y", "u"))
#: (kind, jet order of the density's atoms)
FORMS = (("lagrangian", 1), ("lagrangian", 2), ("hamiltonian", 0))


def random_expr(rng: random.Random, atoms, depth: int = DEPTH) -> str:
    """One expression of at most `depth` nested operations over `atoms`."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(atoms) if rng.random() < 0.85 else f"({rng.choice(CONSTANTS)})"
    op = rng.choice(("+", "*", "/", "f", "^"))
    a = random_expr(rng, atoms, depth - 1)
    if op == "f":
        return f"{rng.choice(FUNCTIONS)}({a})"
    if op == "^":
        return f"({a})^{rng.choice(POWERS)}"
    b = random_expr(rng, atoms, depth - 1)
    return f"({a}) {op} ({b})" if op == "+" else f"({a}){op}({b})"


def random_model(rng: random.Random, depth: int = DEPTH, fields=FIELDS) -> str:
    """The text of one model: Lagrangian of order 1, of order 2, or
    Hamiltonian, in equal shares, its two expressions `depth` deep.  Its
    fields are one of the two choices of `fields`."""
    fields = rng.choice(fields)
    kind, order = rng.choice(FORMS)
    if kind == "hamiltonian":
        atoms = [*fields, *(f"pt_{f}" for f in fields)]
    else:
        atoms = [*fields, *(f"{f}_{'t' * k}" for k in range(1, order + 1) for f in fields)]
    density = f"{random_expr(rng, atoms, depth)} + {random_expr(rng, atoms, depth)}"
    return f"base t\nfibre {' '.join(fields)}\n{kind} {density}\n"


class Refusal(str):
    """A stage's `DeviqError` as `"<type>: <message>"`, in place of its
    output; a `str`, so it hashes into a digest like any output."""


def _outputs(text: str):
    """Every output deviq makes of one model text, each stage's error
    message, a `Refusal`, in place of its output."""
    from deviq import (
        DeviqError,
        check_model,
        compile_system,
        deviation_equations,
        derive_equations,
        parse_model,
        render,
        to_text,
    )

    def run(stage):
        try:
            return stage()
        except DeviqError as ex:
            return Refusal(f"{type(ex).__name__}: {ex}")

    model = run(lambda: parse_model(text))
    if isinstance(model, str):
        yield model
        return
    for make in (derive_equations, deviation_equations):
        system = run(lambda: make(model))
        if isinstance(system, str):
            yield system
            continue
        for fmt in ("text", "latex", "json"):
            yield run(lambda: render(system, fmt))
    yield run(lambda: str(check_model(model)))

    def compiled():
        fos = compile_system(deviation_equations(model))
        return "\n".join(f"{s.name}' = {to_text(f)}" for s, f in zip(fos.states, fos.rhs))

    yield run(compiled)


def digest(n: int = 400, seed: int = 5, depth: int = DEPTH) -> str:
    """The sha256 of `n` models of `depth` from `random.Random(seed)` and
    of all that deviq makes of them: the derived and deviation systems as
    text, LaTeX and JSON, the check report, the compiled deviation pair's
    states and right-hand sides, and every error message."""
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(n):
        text = random_model(rng, depth)
        for part in (text, *_outputs(text)):
            h.update(part.encode() + b"\0")
    return h.hexdigest()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    parser = argparse.ArgumentParser(description="Seeded random models over the model grammar.")
    parser.add_argument("--digest", action="store_true", help="print the digest of the models")
    parser.add_argument("--models", type=int, default=400)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--depth", type=int, default=DEPTH, help="nesting of each expression")
    args = parser.parse_args()
    if args.digest:
        print(digest(args.models, args.seed, args.depth))
    else:
        print(random_model(random.Random(args.seed), args.depth), end="")
