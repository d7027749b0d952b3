"""Shared pieces: the checkout layout, operation bookkeeping, statistics,
cold-process probes, and the per-layer counters fed by the tracer."""

from __future__ import annotations

import functools
import hashlib
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
MODELS = ROOT / "models"
OUT = ROOT / ".perfbench-out"
WORK = ROOT / ".perfbench-work"

#: one subprocess may not take longer than this
PROC_TIMEOUT_S = 60


def checkout_ok() -> str:
    """'' when the current directory is a deviq checkout, else the reason."""
    for need in (SRC / "deviq" / "__init__.py", MODELS / "pendulum.eqn"):
        if not need.is_file():
            return f"{need.relative_to(ROOT)} not found: run from the root of a deviq checkout"
    return ""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def sha(text) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


class Ledger:
    """Attempted and failed operations, with reasons and output digests."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # (op, reason)
        self.digests = {}
        self.known_defects = []

    def verdict(self, op: str, reason: str) -> None:
        """Count one operation; an empty reason means the oracle accepted it."""
        self.attempted += 1
        if reason:
            self.failures.append((op, reason))

    @property
    def failed(self) -> int:
        return len(self.failures)


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile over the sorted values."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timings(setup_s: float, rss_mb: float, ops: list) -> tuple:
    """The end-to-end metrics every workload reports.

    `ops` holds (operation shape, seconds) for every timed operation.  A
    shape repeated within the run (same command, model size or problem,
    fresh coefficients) counts at its fastest repetition, which discards
    moments when another tenant slowed the machine.  Over those times:
    `pass_s`, one pass over all shapes, which the costliest operations
    dominate, and `op_ms_geomean`, the geometric mean latency, in which
    every shape weighs the same.  Single quantiles are left to the run
    record: with 20 to 90 shapes of unequal cost they jump between
    neighbouring shapes from run to run.  Returns ({shape: best seconds},
    metrics).
    """
    best = {}
    for shape, dt in ops:
        best[shape] = min(dt, best.get(shape, dt))
    return best, {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "pass_s": sum(best.values()),
        "op_ms_geomean": 1000.0 * math.exp(statistics.fmean(math.log(v) for v in best.values())),
    }


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_proc(argv, timeout=PROC_TIMEOUT_S):
    """(returncode, stdout, stderr) of a child in the checkout with deviq
    on its path; returncode None on timeout."""
    try:
        p = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired as ex:
        return None, ex.stdout or "", f"timeout after {timeout}s"
    return p.returncode, p.stdout, p.stderr


# --------------------------------------------------------------------------
# timing

#: duration of the calibration loop on the reference machine (a 2-core
#: x86 container, Python 3.11) while no other tenant slows it down
REF_CAL_S = 0.002


def _calibration_unit():
    """Fixed pure-Python work of the kind the symbolic core does: dict
    updates, sorting and Fraction arithmetic."""
    d, acc = {}, Fraction(0)
    for i in range(6000):
        k = (i * 7919) % 613
        d[k] = d.get(k, 0) + i
        if i % 20 == 0:
            acc += Fraction(i % 13 + 1, i % 7 + 2)
    return sorted(d.items())[:3], acc


class Clock:
    """Times operations in reference-machine seconds.

    The machines this benchmark runs on are shared, and their speed
    swings by up to 2x within tens of seconds.  Each operation's wall
    time is scaled by REF_CAL_S over the mean duration of the calibration
    loop measured just before and just after it, which cancels those
    swings.  The raw wall time of all operations is kept in `raw_s`.
    """

    def __init__(self):
        self.raw_s = 0.0
        self._last = self._calibrate()

    @staticmethod
    def _calibrate() -> float:
        """Fastest of five runs: it follows sustained slowdowns but not a
        momentary one."""
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            _calibration_unit()
            best = min(best, time.perf_counter() - t0)
        return best

    def time(self, fn):
        """(reference seconds, result) of calling fn()."""
        before = self._last
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = self._calibrate()
        scaled = raw * REF_CAL_S / (0.5 * (before + after))
        self._last = after
        self.raw_s += raw
        return scaled, result


#: a cold interpreter importing what deviq's CLI imports besides deviq
REF_PROC = (sys.executable, "-c", "import argparse, dataclasses, fractions, json, re, numpy")
#: its duration on the reference machine while no other tenant slows it
REF_PROC_S = 0.2


class ProcClock:
    """Times child processes in reference-machine seconds.

    Process start-up (exec, page faults, loading shared objects) slows
    more than pure-Python loops when the machine is busy, so children are
    calibrated against a reference child, REF_PROC, run once every
    `every` operations.  An operation is scaled by REF_PROC_S over the
    median of the six reference runs around its group, because a single
    cold start jitters by tens of percent; `scaled()` gives the times
    once the last group is closed.
    """

    def __init__(self, every: int = 5):
        self.every = every
        self.raw = []
        self.refs = [self._ref()]

    @staticmethod
    def _ref() -> float:
        t0 = time.perf_counter()
        run_proc(list(REF_PROC))
        return time.perf_counter() - t0

    def time(self, fn):
        """Result of calling fn(); its raw time joins the record."""
        t0 = time.perf_counter()
        result = fn()
        self.raw.append(time.perf_counter() - t0)
        if len(self.raw) % self.every == 0:
            self.refs.append(self._ref())
        return result

    def scaled(self) -> list:
        if len(self.raw) % self.every:
            self.refs.append(self._ref())
        out = []
        for i, raw in enumerate(self.raw):
            g = i // self.every
            window = self.refs[max(0, g - 2): g + 4]
            out.append(raw * REF_PROC_S / statistics.median(window))
        return out


def import_probe_s(repeats: int = 9) -> float:
    """Median time of a fresh interpreter that imports deviq."""
    clock = ProcClock(every=3)
    for _ in range(repeats):
        clock.time(lambda: run_proc([sys.executable, "-c", "import deviq"]))
    return statistics.median(clock.scaled())


def setup_time(clock: Clock, prep, repeats: int = 3) -> float:
    """setup_s: the cold `import deviq` median plus the median of
    `repeats` calls of the workload's own preparation."""
    return import_probe_s() + statistics.median(clock.time(prep)[0] for _ in range(repeats))


# --------------------------------------------------------------------------
# cold-start probe, measured from outside the package

_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def _importtime(stderr: str) -> dict:
    """module -> cumulative microseconds, outermost occurrence."""
    out = {}
    for m in _IMPORTTIME.finditer(stderr):
        out.setdefault(m.group(4), int(m.group(2)))
    return out


def cold_start_metrics(clock: Clock) -> dict:
    """cli.* metrics in reference milliseconds; `-X importtime` figures
    are the interpreter's own and stay unscaled."""
    py = sys.executable
    ms = lambda argv, k: 1000.0 * statistics.median(clock.time(lambda: run_proc(argv))[0] for _ in range(k))
    deviq_us, numpy_us = [], []
    for _ in range(3):
        table = _importtime(run_proc([py, "-X", "importtime", "-c", "import deviq"])[2])
        deviq_us.append(table.get("deviq", 0))
        numpy_us.append(table.get("numpy", 0))
    derive = run_proc([py, "-X", "importtime", "-m", "deviq", "derive", str(MODELS / "pendulum.eqn")])
    return {
        "cli.python_ms": ms([py, "-c", "pass"], 5),
        "cli.startup_ms": ms([py, "-m", "deviq", "--help"], 5),
        "cli.import_deviq_ms": statistics.median(deviq_us) / 1000.0,
        "cli.import_numpy_ms": statistics.median(numpy_us) / 1000.0,
        "cli.numpy_loaded_on_derive": 1 if "numpy" in _importtime(derive[2]) else 0,
    }


# --------------------------------------------------------------------------
# per-layer counters fed by tracer hooks


def tree_nodes(e, seen=None) -> int:
    """Nodes of an expression tree; with `seen`, also collects subtrees."""
    import deviq

    stack, count = [e], 0
    while stack:
        node = stack.pop()
        count += 1
        if seen is not None:
            seen.add(node)
        if isinstance(node, deviq.Add):
            stack.extend(node.terms)
        elif isinstance(node, deviq.Mul):
            stack.extend(node.factors)
        elif isinstance(node, deviq.Pow):
            stack.append(node.base)
        elif isinstance(node, deviq.Fun):
            stack.append(node.arg)
    return count


class LayerCounters:
    """Counters gathered through tracer hooks during a traced pass."""

    def __init__(self):
        self.c = defaultdict(float)
        self.compiled = []  # FirstOrderSystem objects
        self.integrated = []  # (FirstOrderSystem, t0, z0)
        self._rhs = {}  # id(system) -> its uncounted right-hand side

    def before(self) -> dict:
        """Counts right-hand-side calls of `integrate` by swapping a
        counting wrapper into the system's cached callable for the call."""

        def integrate(args):
            f = args[0]
            if not isinstance(type(f).__dict__.get("_callable"), functools.cached_property):
                return
            inner = f._callable

            def counting(t, z):
                self.c["rhs_calls"] += 1
                return inner(t, z)

            self._rhs[id(f)] = inner
            f.__dict__["_callable"] = counting

        return {"numeric.integrate": integrate}

    def hooks(self) -> dict:
        import deviq

        def diff(args, result):
            self.c["diff_zero"] += isinstance(result, deviq.Rat) and result.value == 0

        def equivalent(args, result):
            self.c["eq_normal_form"] += result.verdict == "equal" and "normal form" in result.reason
            self.c["eq_undetermined"] += result.verdict == "undetermined"

        def system(args, result):
            seen = set()
            for e in result.equations:
                self.c["eq_terms"] += len(e.terms) if isinstance(e, deviq.Add) else 1
                self.c["eq_nodes"] += tree_nodes(e, seen)
            self.c["eq_nodes_distinct"] += len(seen)

        def compiled(args, result):
            self.compiled.append(result)
            seen = set()
            for e in result.rhs:
                self.c["rhs_nodes"] += tree_nodes(e, seen)
            self.c["rhs_nodes_distinct"] += len(seen)

        def integrate(args, result):
            f, z0, t0 = args[0], args[1], args[2]
            if id(f) in self._rhs:
                f.__dict__["_callable"] = self._rhs.pop(id(f))
            self.integrated.append((f, t0, tuple(z0)))
            self.c["steps"] += len(result) - 1

        def render(args, result):
            self.c["bytes_out"] += len(result.encode("utf-8"))

        return {
            "expr.diff": diff,
            "expr.equivalent": equivalent,
            "model.derive_equations": system,
            "model.deviation_equations": system,
            "numeric.compile_system": compiled,
            "numeric.integrate": integrate,
            "render.render": render,
        }

    def rhs_us_per_call(self, clock: Clock, rng: random.Random, calls: int = 200) -> float:
        """Mean microseconds per right-hand-side call over the systems the
        pass integrated (or compiled, at small seeded states)."""
        systems = [(f, t0, z0) for f, t0, z0 in self.integrated]
        if not systems:
            systems = [(f, 0.0, tuple(rng.uniform(-0.1, 0.1) for _ in f.states)) for f in self.compiled]
        unique = {id(s[0]): s for s in systems}
        per = []
        for f, t0, z0 in unique.values():
            def loop():
                for _ in range(calls):
                    f(t0, z0)
            per.append(clock.time(loop)[0] / calls * 1e6)
        return statistics.fmean(per) if per else 0.0


def layer_metrics(tracer, counters: LayerCounters, problems: int, clock: Clock, rng) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    rows = tracer.by_name()
    row = lambda n: rows.get(n, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    c = counters.c
    out = {"model.parse_model.s": row("model.parse_model")["total_s"]}
    for name in ("normalize", "diff", "substitute", "free_symbols", "equivalent"):
        out[f"expr.{name}.calls"] = row(f"expr.{name}")["calls"]
        out[f"expr.{name}.self_s"] = row(f"expr.{name}")["self_s"]
    diffs = row("expr.diff")["calls"]
    eqs = row("expr.equivalent")["calls"]
    out["expr.diff.zero_frac"] = c["diff_zero"] / diffs if diffs else 0.0
    out["expr.equivalent.normal_form_frac"] = c["eq_normal_form"] / eqs if eqs else 0.0
    out["expr.equivalent.undetermined"] = c["eq_undetermined"]
    for key in ("eq_terms", "eq_nodes", "eq_nodes_distinct"):
        out[f"expr.{key}"] = c[key]
    for name in ("total_derivative", "vertical_derivative"):
        out[f"bundle.{name}.calls"] = row(f"bundle.{name}")["calls"]
        out[f"bundle.{name}.self_s"] = row(f"bundle.{name}")["self_s"]
    out["bundle.classify.calls"] = tracer.counts["bundle.classify"]
    for name in ("variational.euler_lagrange", "variational.deviation_system",
                 "variational.check_el_vertical_commute", "hamiltonian.hamilton_equations",
                 "hamiltonian.check_hamilton_deviation_commute", "numeric.compile_system",
                 "numeric.perturbation_residual", "numeric.finite_difference_jacobi"):
        out[f"{name}.s"] = row(name)["total_s"]
    out["numeric.compile_system.calls_per_problem"] = (
        row("numeric.compile_system")["calls"] / problems if problems else 0.0
    )
    out["numeric.rhs_nodes"] = c["rhs_nodes"]
    out["numeric.rhs_nodes_distinct"] = c["rhs_nodes_distinct"]
    out["numeric.rhs_us_per_call"] = counters.rhs_us_per_call(clock, rng)
    integ = row("numeric.integrate")
    out["numeric.integrate.steps"] = c["steps"]
    out["numeric.integrate.rhs_calls"] = c["rhs_calls"]
    out["numeric.integrate.steps_per_s"] = c["steps"] / integ["total_s"] if integ["total_s"] else 0.0
    out["numeric.numpy_eval.calls"] = row("numeric.numpy_eval")["calls"]
    out["numeric.numpy_eval.self_s"] = row("numeric.numpy_eval")["self_s"]
    out["numeric.to_csv.s"] = row("numeric.to_csv")["total_s"]
    out["render.render.s"] = row("render.render")["total_s"]
    out["render.bytes_out"] = c["bytes_out"]
    out["cli.main.self_s"] = row("cli.main")["self_s"]
    return out
