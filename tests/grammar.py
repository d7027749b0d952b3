"""Seeded random models over the model-file grammar.

`random_model(rng)` writes the text of one model file on the base t:
a Lagrangian of jet order 1 or 2, or a Hamiltonian, over one or two
fields.  Its density is a sum of two expressions nested at most `DEPTH`
levels, built from sums, products, quotients, the six functions and the
powers in `POWERS`, with the fields, their jets or momenta, and small
positive constants at the leaves.
"""

import random

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


def random_model(rng: random.Random) -> str:
    """The text of one model: Lagrangian of order 1, of order 2, or
    Hamiltonian, in equal shares."""
    fields = rng.choice(FIELDS)
    kind, order = rng.choice(FORMS)
    if kind == "hamiltonian":
        atoms = [*fields, *(f"pt_{f}" for f in fields)]
    else:
        atoms = [*fields, *(f"{f}_{'t' * k}" for k in range(1, order + 1) for f in fields)]
    density = f"{random_expr(rng, atoms)} + {random_expr(rng, atoms)}"
    return f"base t\nfibre {' '.join(fields)}\n{kind} {density}\n"
