"""Seeded property: every commutation pair of random grammar models is
decided by the normal form.

Both sides of a pair are built by derivations over the same atoms, which
commute formally, so a pair whose normal forms differ would be a gap in
the normal form (two spellings of one atom) or a fault in a derivation.
The models come from `grammar.random_model`: one or two fields,
Lagrangians of order 1 and 2 and Hamiltonians, all six functions,
quotients and the powers 2, 3, 1/2, -1 and -3/2.
"""

import random

from deviq import check_model, parse_model
from grammar import FUNCTIONS, POWERS, random_model

MODELS = 240
TEXTS = [random_model(random.Random(seed)) for seed in range(MODELS)]


def test_generator_covers_the_grammar():
    joined = "".join(TEXTS)
    assert all(f"{name}(" in joined for name in FUNCTIONS)
    assert all(f")^{power}" in joined for power in POWERS)
    assert ")/(" in joined
    for head in ("fibre y\n", "fibre y u\n", "\nhamiltonian ", "\nlagrangian "):
        assert head in joined
    assert any("_tt" in text for text in TEXTS)


def test_every_pair_is_decided_by_the_normal_form():
    pairs = 0
    for seed, text in enumerate(TEXTS):
        report = check_model(parse_model(text))
        assert report.passed, f"seed {seed}:\n{text}{report}"
        assert {e.result.reason for e in report.entries} == {"normal forms coincide"}, seed
        pairs += len(report.entries)
    assert pairs >= 2 * MODELS  # at least two pairs a model
