"""fpu-chain and pendulum-chain: the exact core on generated chains.

Each pass runs every (N, form) member of the family through four stages
from the model text, as the CLI does: derive, deviate, check, and the
compile of the deviation system.  Every stage gets a model with fresh
coefficients, so a cache kept across calls gains only what a real first
call gains; compile takes the deviate stage's system, as `deviq
simulate` does within one process.
"""

from __future__ import annotations

import random
import statistics

from chains import FORMS, make_chain, model_text
from common import Clock, Ledger, peak_rss_mb, setup_time, sha, timings

SIZES = (2, 4, 8, 16)
STAGES = ("derive", "deviate", "check", "compile")
#: run seconds per pass: a run makes round(seconds / PASS_S) passes, at
#: least one.  A pass takes about 11 s (fpu) and 4 s (pendulum) on the
#: reference machine (2 cores, Python 3.11); two passes give every shape a
#: repetition to fall back on while the run stays within its time budget.
PASS_S = {"fpu": 7.5, "pendulum": 7.0}


def members(rng: random.Random) -> list:
    out = [(n, form) for n in SIZES for form in FORMS]
    rng.shuffle(out)
    return out


def run_pass(family: str, rng: random.Random, clock: Clock, span=None) -> tuple:
    """One pass over the family: ([(stage, seconds)] per call, outputs to verify)."""
    import deviq

    calls = []
    outputs = []

    def stage(name, fn):
        if span is None:
            dt, result = clock.time(fn)
        else:
            with span(f"stage:{name}"):
                dt, result = clock.time(fn)
        calls.append(((name, n, form), dt))
        return result

    def derive(text):
        return deviq.render(deviq.derive_equations(deviq.parse_model(text)), "text")

    def deviate(text):
        system = deviq.deviation_equations(deviq.parse_model(text))
        return system, deviq.render(system, "text")

    def check(text):
        report = deviq.check_model(deviq.parse_model(text))
        return report, str(report)

    for n, form in members(rng):
        chains = {s: make_chain(family, form, n, rng) for s in STAGES[:3]}
        texts = {s: model_text(c) for s, c in chains.items()}
        derived = stage("derive", lambda: derive(texts["derive"]))
        system, deviated = stage("deviate", lambda: deviate(texts["deviate"]))
        report, _ = stage("check", lambda: check(texts["check"]))
        compiled = stage("compile", lambda: deviq.compile_system(system))
        outputs.append((chains, derived, deviated, report, compiled))
    return calls, outputs


def measure(family: str, seed: int, seconds: float) -> tuple:
    rng = random.Random(seed)
    clock = Clock()
    setup_s = setup_time(clock, lambda: [model_text(make_chain(family, f, n, rng)) for n, f in members(rng)])
    passes, outputs = [], []
    for _ in range(max(1, round(seconds / PASS_S[family]))):
        calls, outs = run_pass(family, rng, clock)
        passes.append(calls)
        outputs.extend(outs)
    rss = peak_rss_mb()
    ledger = Ledger()
    verify(outputs, ledger, rng)
    stage_s = [{s: sum(dt for shape, dt in calls if shape[0] == s) for s in STAGES} for calls in passes]
    detail = {"sizes": list(SIZES), "raw_s": clock.raw_s,
              "passes": [{k: round(v, 6) for k, v in p.items()} for p in stage_s]}
    for s in STAGES:
        detail[f"{s}_s"] = statistics.median(p[s] for p in stage_s)
    best, metrics = timings(setup_s, rss, [op for calls in passes for op in calls])
    detail["best_ms"] = {":".join(map(str, k)): round(v * 1000.0, 3) for k, v in best.items()}
    return metrics, ledger, detail


def verify(outputs, ledger: Ledger, rng: random.Random) -> None:
    import oracles as O

    oracle = O.ChainOracle()
    for i, (chains, derived, deviated, report, compiled) in enumerate(outputs):
        tag = f"{i}:{chains['derive'].name}"
        ledger.digests[f"derive:{tag}"] = sha(derived)
        ledger.digests[f"deviate:{tag}"] = sha(deviated)
        ledger.digests[f"check:{tag}"] = sha(str(report))
        ledger.digests[f"compile:{tag}"] = sha("\n".join(
            f"{s} = {r}" for s, r in zip(compiled.state_names, compiled.rhs)))

        _, eom, _ = oracle.derive(chains["derive"])
        ledger.verdict(f"derive:{tag}", _guard(lambda: O.same_system(O.text_equations(derived), eom, rng)))
        if i == 0:
            ledger.verdict("oracle:planted", "" if O.planted_is_caught(eom, rng) else "planted error not caught")

        sm, _, dev = oracle.derive(chains["deviate"])
        ledger.verdict(f"deviate:{tag}", _guard(lambda: O.same_system(O.text_equations(deviated), dev, rng)))

        c = chains["check"]
        pairs = 2 * c.n if c.form == "lagrangian" else 4 * c.n
        ledger.verdict(f"check:{tag}", "" if report.passed and len(report.entries) == pairs
                       else f"report passed={report.passed} with {len(report.entries)} pairs, expected {pairs}")

        ledger.verdict(f"compile:{tag}", _guard(lambda: _check_compiled(O, sm, dev, compiled, rng)))


def _guard(check) -> str:
    try:
        return check()
    except Exception as ex:  # an unreadable output is a failed operation
        return f"oracle could not read the output: {type(ex).__name__}: {ex}"


def _check_compiled(O, sm, dev, fos, rng) -> str:
    states, tops = O.layout(sm, dev)
    if list(fos.state_names) != states:
        return f"state layout {fos.state_names}, expected {states}"
    for _ in range(2):
        z = [rng.uniform(-0.3, 0.3) for _ in states]
        t = rng.uniform(0.0, 1.0)
        err = O.close(fos(t, z), O.rhs_at(dev, states, tops, t, z), 1e-9)
        if err:
            return f"compiled right-hand side off the oracle by {err:.3g}"
    return ""


def make_pass(family: str, seed: int, clock: Clock):
    """Passes for the traced run, each with fresh coefficients; a pass
    returns its number of compiled problems."""
    rng = random.Random(seed)
    return lambda span=None: len(run_pass(family, rng, clock, span)[1])
