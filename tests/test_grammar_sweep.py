"""Seeded sweeps of grammar models: the outputs of the first 100 depth-3
models keep their digest under another hash seed, and every stage of
deeper models ends in output or a one-line refusal.

`grammar.digest(100, 5)` hashes, byte for byte, the derive and deviate
text, LaTeX and JSON, the check report, the compiled deviation system and
every error message of 100 models.  `test_golden.py` pins the digest of
400 such models in this process, under its hash seed; here a fresh
process under a fixed seed must print the pinned digest of the first 100,
so an output that follows the order of a set fails.  A change that means
to alter these outputs updates `DIGEST_100` and says why.

`grammar.random_model` at depth 4 nests functions of quotients of
functions, whose normal forms swell the way no chain model does (FPU and
pendulum chains are pure polynomials or cosines of differences).  Every
stage `grammar._outputs` runs (derive and deviate as text, LaTeX and
JSON, check, compile) must return its output or raise a `DeviqError`
whose message is one line; any other exception fails the test.  Some of
these models pass `expr.MAX_NORMAL_FORM_TERMS` and are refused.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

from grammar import Refusal, _outputs, random_model

MODELS = 40
TEXTS = [random_model(random.Random(seed), depth=4) for seed in range(MODELS)]
#: `grammar.digest(100, 5)`, which `python tests/grammar.py --digest --models 100` prints
DIGEST_100 = "0b6924a798970ad2016ec9f27eb5811860f988d178d645aaed0edb4ecf95bcca"


def test_first_100_models_keep_their_digest_under_another_hash_seed():
    script = Path(__file__).resolve().parent / "grammar.py"
    run = subprocess.run(
        [sys.executable, str(script), "--digest", "--models", "100"],
        env={**os.environ, "PYTHONHASHSEED": "1"}, capture_output=True, text=True, check=True,
    )
    assert run.stdout.strip() == DIGEST_100


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
