"""jacobi-long: the numeric hot loop on long windows.

Set-up builds and compiles every problem (that cost is `setup_s`).  The
timed part integrates the joint base plus Jacobi flow of each problem
over its window, round after round, then runs deviq's two numeric
oracles, `finite_difference_jacobi` and `perturbation_residual`, on each
problem once.  Small systems (4 to 8 states) and large ones (32 and 64
states) are rated separately, because per-node savings can cost
per-step overhead on tiny systems.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction

import chains as ch
from common import MODELS, Clock, Ledger, peak_rss_mb, setup_time, sha, timings

SMALL = ("pendulum", "sphere", "hkepler", "twofield", "elastica")
SMALL_WINDOW = 10.0
#: (family, N, window, amplitude of the base data)
LARGE = (("fpu", 16, 2.5, 0.1), ("pendulum", 8, 5.0, 0.3))
FD_EPS = 1e-6
#: the divided difference is off by O(FD_EPS) times the second variation,
#: which grows along long windows; a wrong linearization is off by O(1)
FD_TOL = 1e-3
#: run seconds per pass: a run makes round(seconds / PASS_S) passes, at
#: least one; a pass takes about 4 s on the reference machine (2 cores,
#: Python 3.11)
PASS_S = 7.0


@dataclass
class Problem:
    name: str
    size: str  # "small" or "large"
    text: str
    chain: object  # the Chain of a large problem, else None
    scale: object  # the density factor of a small problem, else None
    base: dict
    jac: dict
    t1: float
    prob: object = None  # deviq.JacobiProblem, built in set-up


def _scaled(name: str, scale) -> str:
    """A shipped model with its density multiplied by `scale`: Lagrangian
    solutions are unchanged and a Hamiltonian's time runs `scale` times
    faster, so every set-up compiles a model no earlier call has seen."""
    lines = (MODELS / f"{name}.eqn").read_text().split("\n")
    for i, line in enumerate(lines):
        head, _, rest = line.partition(" ")
        if head in ("lagrangian", "hamiltonian"):
            lines[i] = f"{head} ({scale})*({rest})"
    return "\n".join(lines)


def _small_data(name: str, u) -> tuple:
    """Seeded base data and Jacobi data for a small problem.  Jacobi data
    stay below 0.2, so that eps * psi stays in the quadratic regime of
    the residual law along the whole window."""
    if name == "pendulum":
        return (dict(y=u(1.5, 2.5), y_t=u(-0.2, 0.2)), dict(v_y=u(0.05, 0.2), v_y_t=u(-0.1, 0.1)))
    if name == "sphere":  # the equator theta = pi/2 traversed at unit speed
        return (dict(theta=math.pi / 2, theta_t=0.0, phi=u(0.0, 1.0), phi_t=1.0),
                dict(v_theta=u(-0.2, 0.2), v_theta_t=u(0.05, 0.2), v_phi=u(-0.2, 0.2), v_phi_t=u(-0.02, 0.02)))
    if name == "hkepler":  # the circular orbit r = 1
        return dict(r=1.0, pt_r=0.0), dict(v_r=u(-0.2, 0.2), vpt_r=u(-0.2, 0.2))
    if name == "twofield":
        return (dict(y=u(0.8, 1.2), y_t=u(-0.1, 0.1), u=u(0.3, 0.7), u_t=u(-0.1, 0.1)),
                dict(v_y=u(-0.1, 0.1), v_y_t=u(-0.1, 0.1), v_u=u(-0.1, 0.1), v_u_t=u(-0.1, 0.1)))
    if name == "elastica":
        return (dict(y=u(-0.1, 0.1), y_t=u(0.9, 1.1), y_tt=u(0.4, 0.6), y_ttt=u(-0.1, 0.1)),
                dict(v_y=u(-0.2, 0.2), v_y_t=u(-0.2, 0.2), v_y_tt=u(-0.2, 0.2), v_y_ttt=u(-0.2, 0.2)))
    raise ValueError(name)


def make_problems(rng: random.Random) -> list:
    out = []
    for name in SMALL:
        scale = Fraction(rng.randint(2, 6), rng.randint(2, 6))
        base, jac = _small_data(name, rng.uniform)
        out.append(Problem(f"{name}*{scale}", "small", _scaled(name, scale), None, scale, base, jac, SMALL_WINDOW))
    for family, n, t1, amp in LARGE:
        c = ch.make_chain(family, "lagrangian", n, rng)
        base, jac = ch.initial_data(c, rng, amp)
        out.append(Problem(c.name, "large", ch.model_text(c), c, None, base, jac, t1))
    return out


def build(problems: list) -> list:
    """Parse, form the deviation pair and compile every problem."""
    import deviq

    for p in problems:
        system = deviq.deviation_equations(deviq.parse_model(p.text))
        p.prob = deviq.JacobiProblem(system, p.base, p.jac, 0.0, p.t1)
    return problems


def run_pass(problems, rng, clock: Clock, span=None):
    """Each problem once, in seeded order: its joint flow, then deviq's two
    numeric oracles.  Returns [(kind, problem, seconds, result)]."""
    import deviq

    calls = (
        ("integrate", deviq.solve_jacobi),
        ("fd", lambda prob: deviq.finite_difference_jacobi(prob, FD_EPS)),
        ("residual", deviq.perturbation_residual),
    )
    out = []
    for p in rng.sample(problems, len(problems)):
        for kind, fn in calls:
            if span is None:
                dt, result = clock.time(lambda: fn(p.prob))
            else:
                with span(f"stage:{kind}"):
                    dt, result = clock.time(lambda: fn(p.prob))
            out.append((kind, p, dt, result))
    return out


def measure(seed: int, seconds: float) -> tuple:
    rng = random.Random(seed)
    clock = Clock()
    built = []
    setup_s = setup_time(clock, lambda: built.append(build(make_problems(rng))))
    problems = built[-1]
    passes = [run_pass(problems, rng, clock) for _ in range(max(1, round(seconds / PASS_S)))]
    rss = peak_rss_mb()
    ledger = Ledger()
    verify(passes, ledger)
    detail = {"passes": len(passes), "raw_s": clock.raw_s, "steps": {}}
    for size in ("small", "large"):
        rates = [sum(len(r[3][1].times) - 1 for r in calls if r[0] == "integrate" and r[1].size == size)
                 / sum(r[2] for r in calls if r[0] == "integrate" and r[1].size == size) for calls in passes]
        detail[f"rk4_{size}_steps_per_s"] = statistics.median(rates)
    detail["oracle_s"] = statistics.median(sum(r[2] for r in calls if r[0] != "integrate") for calls in passes)
    for _, p, _, result in passes[0]:
        detail["steps"][p.name] = len(p.prob.compiled.states), round(p.t1 / p.prob.dt)
    ops = [((kind, p.name.split("*")[0]), dt) for calls in passes for kind, p, dt, _ in calls]
    best, metrics = timings(setup_s, rss, ops)
    detail["best_ms"] = {":".join(k): round(v * 1000.0, 3) for k, v in best.items()}
    return metrics, ledger, detail


def verify(passes, ledger: Ledger) -> None:
    import numpy as np

    import oracles as O

    first = {(kind, p.name): result for kind, p, _, result in passes[0]}
    for calls in passes[1:]:  # repeats must be bit-identical to the checked first pass
        for kind, p, _, result in calls:
            ledger.verdict(f"{kind}:{p.name}", "" if _csv(result) == _csv(first[kind, p.name])
                           else "not bit-identical to the first pass")
    for kind, p, _, result in passes[0]:
        if kind != "integrate":
            continue
        base, jac = result
        fd, table = first["fd", p.name], first["residual", p.name]
        ledger.digests[f"integrate:{p.name}"] = sha(_csv(result))
        ledger.digests[f"fd:{p.name}"] = sha(fd.to_csv())
        ledger.digests[f"residual:{p.name}"] = sha(table.to_csv())

        if p.size == "large":
            sm, _, dev = O.ChainOracle().derive(p.chain)
        else:
            sm = O.parse_eqn(p.text)
            dev = O.deviation(sm, O.equations_of_motion(sm))
        ledger.verdict(f"integrate:{p.name}", _guard(lambda: _check_flow(O, np, p, sm, dev, base, jac)))
        fd_err = O.close(fd.states, np.column_stack([jac.column(n) for n in fd.names]), FD_TOL)
        ledger.verdict(f"fd:{p.name}", f"finite differences off the Jacobi field by {fd_err:.3g}" if fd_err else "")
        worst = max(r for _, r in table.entries)
        ledger.verdict(f"residual:{p.name}", "" if O.residual_ok(worst, table.exponent)
                       else f"residual law fails: exponent {table.exponent}, worst {worst:.3g}")


def _csv(result) -> str:
    return "".join(part.to_csv() for part in result) if isinstance(result, tuple) else result.to_csv()


def _guard(check) -> str:
    try:
        return check()
    except Exception as ex:  # an unreadable output is a failed operation
        return f"oracle failed: {type(ex).__name__}: {ex}"


def _check_flow(O, np, p, sm, dev, base, jac) -> str:
    times = base.times
    cols = {n: base.column(n) for n in base.names}
    cols.update({n: jac.column(n) for n in jac.names})
    fo = O.first_order(sm, dev)
    if sorted(cols) != sorted(fo.states):
        return f"states {sorted(cols)}, expected {sorted(fo.states)}"
    if abs(times[-1] - p.t1) > 1e-12:
        return f"window ends at {times[-1]}, expected {p.t1}"
    if p.name.startswith("sphere"):  # v_theta'' = -v_theta on the equator
        exact = p.jac["v_theta"] * np.cos(times) + p.jac["v_theta_t"] * np.sin(times)
        err = O.close(cols["v_theta"], exact, 1e-6)
        if err:
            return f"v_theta off A sin t + B cos t by {err:.3g}"
    if p.name.startswith("hkepler"):  # radial frequency of the circular orbit is the scale
        w = float(p.scale)
        exact = p.jac["v_r"] * np.cos(w * times) + p.jac["vpt_r"] * np.sin(w * times)
        err = O.close(cols["v_r"], exact, 1e-6)
        if err:
            return f"v_r off the circular-orbit closed form by {err:.3g}"
    probe = np.linspace(0, len(times) - 1, 9).astype(int)
    data = {**p.base, **p.jac}
    _, ref = O.reference_flow(fo, [data[s] for s in fo.states], 0.0, p.t1, t_eval=times[probe])
    got = np.column_stack([cols[s][probe] for s in fo.states])
    err = O.close(got, ref, 1e-6)
    return f"trajectory off the DOP853 reference by {err:.3g}" if err else ""


def make_pass(seed: int, clock: Clock):
    """Set-up plus one pass, with fresh problems each time, for the traced
    run; a pass returns its number of problems."""
    rng = random.Random(seed)

    def one(span=None):
        if span is None:
            problems = build(make_problems(rng))
        else:
            with span("stage:setup"):
                problems = build(make_problems(rng))
        run_pass(problems, rng, clock, span)
        return len(problems)

    return one
