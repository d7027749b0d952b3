"""Span tracer that rebinds deviq's public functions from outside.

`Tracer.install()` replaces each target function, in every `deviq.*`
namespace that holds it, by a wrapper that records a span (name, start,
end, parent, enclosing stage) and its self time; `uninstall()` puts the
originals back.  Spans stay in memory until the run writes them out.
Nothing in deviq changes, so the untraced runs execute exactly the
parent's code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

#: (module, attribute path) of every traced public function
TARGETS = (
    ("cli", "main"),
    ("model", "parse_model"),
    ("model", "derive_equations"),
    ("model", "deviation_equations"),
    ("model", "check_model"),
    ("expr", "normalize"),
    ("expr", "diff"),
    ("expr", "substitute"),
    ("expr", "free_symbols"),
    ("expr", "equivalent"),
    ("bundle", "total_derivative"),
    ("bundle", "vertical_derivative"),
    ("variational", "euler_lagrange"),
    ("variational", "deviation_system"),
    ("variational", "check_el_vertical_commute"),
    ("hamiltonian", "hamilton_equations"),
    ("hamiltonian", "check_hamilton_deviation_commute"),
    ("numeric", "compile_system"),
    ("numeric", "integrate"),
    ("numeric", "solve_jacobi"),
    ("numeric", "finite_difference_jacobi"),
    ("numeric", "perturbation_residual"),
    ("numeric", "numpy_eval"),
    ("numeric", "Trajectory.to_csv"),
    ("numeric", "ResidualTable.to_csv"),
    ("render", "render"),
)
#: called too often for spans: only counted
COUNTED = (("bundle", "BundleSpec.classify"),)


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"deviq.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Collects spans while installed.  `before[name](args)` and
    `hooks[name](args, result)` see the arguments and result of each
    traced call outside its span, for layer counters."""

    def __init__(self, hooks=None, before=None):
        self.spans = []  # (id, parent, stage, name, t0, t1, self_s, outermost)
        self.counts = defaultdict(int)
        self.hooks = hooks or {}
        self.before = before or {}
        self._stack = []  # [id, child_time, stage, parent]
        self._depth = defaultdict(int)  # open calls per name
        self._next_id = 0
        self._restore = []

    # -- spans ---------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        sid = self._next_id
        self._depth[name] += 1
        stage = parent[2] if parent else None
        if name.startswith("stage:"):
            stage = sid
        self._stack.append([sid, 0.0, stage, parent[0] if parent else None])
        return time.perf_counter()

    def _exit(self, name, t0):
        t1 = time.perf_counter()
        sid, child, stage, parent = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        self._depth[name] -= 1
        self.spans.append((sid, parent, stage, name, t0, t1, dur - child, self._depth[name] == 0))

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-side span such as a stage."""
        t0 = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, t0)

    # -- installation --------------------------------------------------

    def _wrap(self, name, fn):
        hook, pre = self.hooks.get(name), self.before.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(args)
            t0 = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for group, make in ((TARGETS, self._wrap), (COUNTED, self._count)):
            for module, path in group:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
                name = f"{module}.{path.split('.')[-1]}"
                if "." in path:  # a method: rebind on its class
                    self._rebind(owner, attr, original, make(name, original))
                    continue
                wrapper = make(name, original)
                for modname, mod in list(sys.modules.items()):
                    if modname == "deviq" or modname.startswith("deviq."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- summaries -----------------------------------------------------

    def by_name(self):
        """name -> {calls, self_s, total_s}; total_s counts only the
        outermost call of a recursive function."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for _, _, _, name, t0, t1, self_s, outermost in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_s
            if outermost:
                row["total_s"] += t1 - t0
        return out

    def stages(self):
        """Per stage span: self time of every traced function inside it,
        plus `other` (the stage's own self time); they sum to its
        duration, which is checked and reported as `residual_s`."""
        out = []
        inner = defaultdict(lambda: defaultdict(float))
        for sid, _, stage, name, _, _, self_s, _ in self.spans:
            if stage is not None and sid != stage:
                inner[stage][name] += self_s
        for sid, _, _, name, t0, t1, self_s, _ in self.spans:
            if not name.startswith("stage:"):
                continue
            parts = dict(inner[sid])
            parts["other"] = self_s
            out.append({
                "stage": name[len("stage:"):],
                "traced_s": t1 - t0,
                "self_s": parts,
                "residual_s": (t1 - t0) - sum(parts.values()),
            })
        return out
