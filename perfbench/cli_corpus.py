"""cli-corpus: one cold `python -m deviq` process per operation.

Every applicable subcommand on the 19 shipped models, the canonical ODE
data perturbed by the seed, four invalid inputs with their README exit
codes, and the overflow repro from ROADMAP's standing defects.  The seed
also picks the output formats and the order of the calls.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
import sys

from common import MODELS, WORK, Clock, Ledger, ProcClock, peak_rss_mb, quantile, run_proc, setup_time, sha, timings

LAGRANGIAN = ("oscillator", "pendulum", "sphere", "cubic", "quartic", "expden",
              "mexican", "twofield", "elastica", "laplace", "wave", "kg")
HAMILTONIAN = ("hosc", "hpend", "hquartic", "hkepler", "hcov")
EQUATION = ("riccati", "logistic")
FORMATS = ("text", "latex", "json")

# Canonical initial data of tests/conftest.py::ODE_CORPUS:
# (base data, Jacobi data, window end); the window starts at 0.
ODE_CORPUS = {
    "oscillator": (dict(y=1.0, y_t=0.0), dict(v_y=0.0, v_y_t=1.0), 2.0),
    "pendulum":   (dict(y=2.0, y_t=0.0), dict(v_y=1.0, v_y_t=0.0), 2.0),
    "sphere":     (dict(theta=math.pi / 2, theta_t=0.0, phi=0.0, phi_t=1.0),
                   dict(v_theta=0.0, v_theta_t=1.0, v_phi=0.0, v_phi_t=0.0), math.pi),
    "cubic":      (dict(y=0.0, y_t=1.0), dict(v_y=1.0, v_y_t=0.0), 2.0),
    "quartic":    (dict(y=1.0, y_t=0.0), dict(v_y=1.0, v_y_t=0.0), 2.0),
    "expden":     (dict(y=0.0, y_t=1.0), dict(v_y=1.0, v_y_t=0.0), 2.0),
    "mexican":    (dict(y=0.5, y_t=0.0), dict(v_y=1.0, v_y_t=0.0), 2.0),
    "twofield":   (dict(y=1.0, y_t=0.0, u=0.5, u_t=0.0),
                   dict(v_y=1.0, v_y_t=0.0, v_u=0.0, v_u_t=0.0), 2.0),
    "elastica":   (dict(y=0.0, y_t=1.0, y_tt=0.5, y_ttt=0.0),
                   dict(v_y=1.0, v_y_t=0.0, v_y_tt=0.0, v_y_ttt=0.0), 2.0),
    "riccati":    (dict(y=-1.0), dict(v_y=1.0), 2.0),
    "logistic":   (dict(y=0.5), dict(v_y=1.0), 2.0),
    "hosc":       (dict(y=1.0, pt_y=0.0), dict(v_y=0.0, vpt_y=1.0), 2.0),
    "hpend":      (dict(y=2.0, pt_y=0.0), dict(v_y=1.0, vpt_y=0.0), 2.0),
    "hquartic":   (dict(y=1.0, pt_y=0.0), dict(v_y=1.0, vpt_y=0.0), 2.0),
    "hkepler":    (dict(r=1.0, pt_r=0.0), dict(v_r=1.0, vpt_r=0.0), 2.0),
}

#: invalid inputs: (name, model text, subcommand args, README exit code)
INVALID = (
    ("parse-error", "base t\nfibre y\nlagrangian 0.5*y_t^^2\n", ["derive"], 2),
    ("unknown-symbol", "base t\nfibre y\nlagrangian 0.5*z_t^2\n", ["derive"], 2),
    ("unbound-param", "base t\nfibre y\nparam k\nlagrangian 0.5*y_t^2 - k*y^2\n",
     ["simulate", "--init", "y=1,y_t=0", "--t1", "0.5"], 3),
    ("blow-up", None, ["simulate", "--init", "y=1", "--jacobi-init", "v_y=1", "--t1", "2"], 3),
)
#: ROADMAP standing defect: sqrt(1e400) is exactly 1e200, so derive must
#: succeed; today `_rational_root` overflows and the CLI dies with a traceback.
#: Its outcome is recorded as a known defect, not as a failed operation.
REPRO = ("overflow-repro", "base t\nfibre y\nlagrangian 0.5*y_t^2 + sqrt(1e400)*y\n", ["derive"], 0)


#: run seconds per pass: a run makes round(seconds / PASS_S) passes, at
#: least one; a pass over the corpus takes about 25 s on the reference
#: machine (2 cores, Python 3.11)
PASS_S = 30.0


def _assign(d: dict) -> str:
    return ",".join(f"{k}={v!r}" for k, v in d.items())


def build_ops(rng: random.Random, work) -> list:
    """(op id, argv after `-m deviq`, model name or None, extra) in seeded order."""
    ops = []
    shift = rng.randrange(len(FORMATS))
    for i, name in enumerate(sorted(LAGRANGIAN + HAMILTONIAN + EQUATION)):
        path = str(MODELS / f"{name}.eqn")
        for j, sub in enumerate(("derive", "deviate")):
            fmt = FORMATS[(i + j + shift) % len(FORMATS)]
            ops.append((f"{sub}:{name}:{fmt}", [sub, path, "--format", fmt], name, fmt))
    for name in LAGRANGIAN + HAMILTONIAN:
        ops.append((f"check:{name}", ["check", str(MODELS / f"{name}.eqn")], name, None))
    for name, (base, jac, t1) in ODE_CORPUS.items():
        base = {k: v + rng.uniform(-0.05, 0.05) for k, v in base.items()}
        jac = {k: v + rng.uniform(-0.2, 0.2) for k, v in jac.items()}
        window = ["--init", _assign(base), "--jacobi-init", _assign(jac), "--t1", repr(t1)]
        for sub in ("simulate", "residual"):
            ops.append((f"{sub}:{name}", [sub, str(MODELS / f"{name}.eqn"), *window],
                        name, (base, jac, t1)))
    for tag, text, args, code in INVALID + (REPRO,):
        path = MODELS / "riccati.eqn"
        if text is not None:
            path = work / f"{tag}.eqn"
            path.write_text(text)
        ops.append((f"{args[0]}:{tag}", [args[0], str(path), *args[1:]], None, (tag, code)))
    rng.shuffle(ops)
    return ops


def measure(seed: int, seconds: float) -> tuple:
    """Untraced run: (metrics, ledger, detail)."""
    rng = random.Random(seed)
    work = WORK / f"cli-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = setup_time(Clock(), lambda: build_ops(rng, work))
        ops = build_ops(rng, work)
        clock = ProcClock()
        runs = []
        for _ in range(max(1, round(seconds / PASS_S))):
            for op in ops:
                runs.append((op, clock.time(lambda: run_proc([sys.executable, "-m", "deviq", *op[1]]))))
        rss = peak_rss_mb(children=True)
        results = [(*op, dt, *out) for (op, out), dt in zip(runs, clock.scaled())]
        passes = [sum(r[4] for r in results[i:i + len(ops)]) for i in range(0, len(results), len(ops))]
        ledger = Ledger()
        verify(results, ledger, rng)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ms = [1000.0 * r[4] for r in results]
    detail = {"samples": len(results), "passes": passes, "raw_s": sum(clock.raw), "refs_s": clock.refs,
              "cli_ms_p50": quantile(ms, 0.5), "cli_ms_p90": quantile(ms, 0.9),
              "ms": {r[0]: round(r[4] * 1000.0, 3) for r in results}}
    metrics = timings(setup_s, rss, [(r[0], r[4]) for r in results])[1]
    return metrics, ledger, detail


def verify(results, ledger: Ledger, rng: random.Random) -> None:
    import oracles as O

    cache = {}

    def model(name):
        if name not in cache:
            sm = O.parse_eqn((MODELS / f"{name}.eqn").read_text())
            eom = O.equations_of_motion(sm)
            cache[name] = (sm, eom, O.deviation(sm, eom))
        return cache[name]

    for op_id, argv, name, extra, _, code, out, err in results:
        ledger.digests[op_id] = sha(out)
        sub = argv[0]
        try:
            if name is None:
                tag, want = extra
                reason = _check_invalid(code, out, err, want)
                if tag == REPRO[0]:
                    if not reason:
                        reason = O.same_system(O.text_equations(out), [10**200 - O.to_sympy("y_tt")], rng)
                    if reason:
                        ledger.known_defects.append({"op": op_id, "reason": reason})
                    continue
            elif code != 0 or "Traceback" in err:
                reason = f"exit {code}: {err.strip()[-300:]}"
            elif sub in ("derive", "deviate"):
                reason = _check_system(O, model(name), sub, extra, out, rng)
            elif sub == "check":
                reason = _check_report(O, model(name)[0], out)
            elif sub == "simulate":
                reason = _check_simulate(O, name, model(name), extra, out)
            else:
                reason = _check_residual(out, err)
        except Exception as ex:  # an unreadable output is a failed operation
            reason = f"oracle could not read the output: {type(ex).__name__}: {ex}"
        ledger.verdict(op_id, reason)
    sm, eom, _ = model("pendulum")
    ledger.verdict("oracle:planted", "" if O.planted_is_caught(eom, rng) else "planted error not caught")


def _check_invalid(code, out, err, want) -> str:
    if code != want:
        return f"exit {code}, README says {want}: {err.strip()[-300:]}"
    if want and (out or not err.startswith("deviq: ") or "Traceback" in err):
        return f"expected a one-line deviq message, got {err.strip()[-300:]!r}"
    return ""


def _check_system(O, model, sub, fmt, out, rng) -> str:
    _, eom, dev = model
    want = eom if sub == "derive" else dev
    if fmt == "latex":
        return O.latex_rows_ok(out, len(want))
    got = O.text_equations(out) if fmt == "text" else O.json_equations(out)
    return O.same_system(got, want, rng)


def _check_report(O, sm, out) -> str:
    m, n = len(sm.fibre), len(sm.base)
    pairs = 2 * m if sm.kind == "lagrangian" else m * (2 * n + 2)
    lines = out.rstrip("\n").split("\n")
    if not lines[0].endswith(f": PASS ({pairs} pairs)"):
        return f"report head {lines[0]!r}, expected PASS with {pairs} pairs"
    if sum(line.strip().startswith("[pass]") for line in lines[1:]) != pairs:
        return "not every pair is marked [pass]"
    return ""


def _check_simulate(O, name, model, data, out) -> str:
    import numpy as np

    sm, _, dev = model
    base, jac, t1 = data
    rows = [r for r in out.split("\n") if r]
    fo = O.first_order(sm, dev)
    if rows[0] != "t," + ",".join(fo.states):
        return f"CSV header {rows[0]!r}, expected t,{','.join(fo.states)}"
    table = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    times, states = table[:, 0], table[:, 1:]
    if times[0] != 0.0 or abs(times[-1] - t1) > 1e-12 or not np.all(np.diff(times) > 0):
        return "time grid does not run from 0 to t1"
    data0 = {**base, **jac}
    z0 = [data0[s] for s in fo.states]
    if name == "oscillator":  # y'' = -y and v'' = -v, solved in closed form
        for k, (pos, vel) in enumerate((("y", "y_t"), ("v_y", "v_y_t"))):
            exact = data0[pos] * np.cos(times) + data0[vel] * np.sin(times)
            err = O.close(states[:, fo.states.index(pos)], exact, 1e-6)
            if err:
                return f"oscillator {pos} off the closed form by {err:.3g}"
    probe = np.linspace(0, len(times) - 1, 9).astype(int)
    _, ref = O.reference_flow(fo, z0, 0.0, t1, t_eval=times[probe])
    err = O.close(states[probe], ref, 1e-6)
    return f"trajectory off the DOP853 reference by {err:.3g}" if err else ""


def _check_residual(out, err) -> str:
    import oracles as O

    rows = [r for r in out.split("\n") if r]
    if rows[0] != "eps,residual" or len(rows) != 4:
        return f"residual CSV has {len(rows)} rows"
    worst = max(float(r.split(",")[1]) for r in rows[1:])
    tail = err.strip().split("\n")[-1]
    if not tail.startswith("fitted exponent: "):
        return f"no fitted exponent on stderr: {tail!r}"
    word = tail[len("fitted exponent: "):].split()[0]
    exponent = None if word == "n/a" else float(word)
    if not O.residual_ok(worst, exponent):
        return f"residual law fails: exponent {exponent}, worst residual {worst:.3g}"
    return ""


def make_pass(seed: int):
    """In-process passes through `deviq.cli.main` for the traced run, each
    subcommand its own stage; a pass returns its number of Jacobi problems."""
    import deviq.cli

    rng = random.Random(seed)

    def one_pass(span=None):
        work = WORK / f"cli-trace-{seed}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            ops = build_ops(rng, work)
            for _, argv, _, _ in ops:
                with contextlib.ExitStack() as stack:
                    stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
                    stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
                    if span is not None:
                        stack.enter_context(span(f"stage:{argv[0]}"))
                    try:
                        deviq.cli.main(argv)
                    except Exception:  # the overflow repro escapes main
                        pass
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return sum(op[1][0] in ("simulate", "residual") for op in ops)

    return one_pass
