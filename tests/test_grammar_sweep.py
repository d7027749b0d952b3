"""Seeded sweep of deeper grammar models: every stage ends in output or a
one-line refusal.

`grammar.random_model` at depth 4 nests functions of quotients of
functions, whose normal forms swell the way no chain model does (FPU and
pendulum chains are pure polynomials or cosines of differences).  Every
stage `grammar._outputs` runs (derive and deviate as text, LaTeX and
JSON, check, compile) must return its output or raise a `DeviqError`
whose message is one line; any other exception fails the test.  Some of
these models pass `expr.MAX_NORMAL_FORM_TERMS` and are refused.
"""

import random

from grammar import Refusal, _outputs, random_model

MODELS = 40
TEXTS = [random_model(random.Random(seed), depth=4) for seed in range(MODELS)]


def test_every_stage_gives_output_or_a_one_line_refusal():
    capped = 0
    for seed, text in enumerate(TEXTS):
        for part in _outputs(text):
            if isinstance(part, Refusal):
                assert "\n" not in part, f"seed {seed}:\n{text}{part}"
                capped += "a normal form would have" in part
            else:
                assert part, f"seed {seed}:\n{text}"
    assert capped  # the set reaches the normal-form cap
