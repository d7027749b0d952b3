"""First-order compilation and fixed-step integration of deviation systems.

Restricted to a 1-dimensional base (mechanics).  `compile_system` turns
an equation system into explicit normal form dZ/dt = F(t, Z) by solving
each equation for its highest derivative with a single division; the
state vector stacks the derivative chains of the base fields first and
their vertical mirrors second, so a deviation pair integrates as one
joint flow whose vertical half is the Jacobi field.

Two independent numeric oracles back the symbolic construction:

  * finite_difference_jacobi integrates the original system from nudged
    initial data and returns the divided difference (s_eps - s)/eps,
    which must converge linearly in eps to the Jacobi field;
  * perturbation_residual evaluates the original equations on s + eps*psi
    and must observe the O(eps^2) law that linearization promises.

Integration is classical RK4 with a fixed step: bit-exact deterministic
for fixed inputs, no adaptivity anywhere.  Each system's RK4 loop over a
whole window is generated as one function with straight-line steps; the
finite-difference oracle runs its two flows as two lanes of one such
loop, and the residual is one pass that steps the joint flow and
evaluates each interior point, for every eps, once the step past it is
done.

A trajectory keeps its times and rows as flat C doubles, which the
generated loops write row by row, so `integrate`, `solve_jacobi`, the two
oracles and `Trajectory.to_csv` never load numpy.  It loads where an
array is made: on the first read of a trajectory's `times`, `states` or
`column`, and in `numpy_eval`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from itertools import chain
from struct import Struct
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .bundle import BundleSpec, MultiIndex
from .errors import (
    CompileError,
    IntegrationError,
    SingularEquationError,
    SpecError,
    UnboundSymbolError,
)
from .expr import (
    VERTICAL_KINDS,
    ZERO,
    Add,
    Expr,
    Fun,
    Mul,
    Pow,
    Rat,
    Sym,
    _from_poly,
    _poly,
    diff,
    free_symbols,
    normalize,
    substitute,
)
from .value import Value
from .variational import EquationSystem

if TYPE_CHECKING:
    from array import array

    import numpy as np

__all__ = [
    "FirstOrderSystem",
    "Trajectory",
    "JacobiProblem",
    "compile_system",
    "integrate",
    "solve_jacobi",
    "finite_difference_jacobi",
    "perturbation_residual",
    "ResidualTable",
    "DEFAULT_EPS_LADDER",
]

DEFAULT_DT = 1e-3
DEFAULT_EPS_LADDER = (1e-2, 5e-3, 2.5e-3)

MAX_COMPILE_ORDER = 4
#: `integrate` refuses longer windows.  The longest window in the tests, the
#: golden files and the benchmark is 10^4 steps (t1 = 10 at dt = 1e-3); 10^5
#: rows of a 64-state system take about 51 MB of doubles.
MAX_STEPS = 10**5


# --------------------------------------------------------------------------
# code generation: `horner._horner` rewrites each normal-form sum over
# differences of state variables, then into greedy Horner form, and `_emit`
# writes one node of the result.  `_lambdify` inlines every subtree, for
# `FirstOrderSystem.__call__` and `numpy_eval`; `_rk4_loop` and
# `_residual_loop` write loops of straight-line code over scalars that
# computes each repeated subtree once, a difference too, their RK4 steps
# all by `_rk4_lane`.  Every generated function reads its expressions through
# `_horner`, so all of them do the same float operations in the same order;
# a compiled system makes the forms of its right-hand side once, and its
# call, its RK4 loops and its residual's stepping share them.  A sum's term
# -1*u is written as a subtraction, s - u (a first one as v - u with the
# next term v, or as -u): IEEE 754 defines s - u as s + (-u), (-1)*u is -u
# and (-x)*y is -(x*y) exactly, signed zeros and infinities too, so every
# double is that of the product by -1; only a nan may come out as another.

_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")
_SCALAR_ENV = {**{n: getattr(math, n) for n in _FUNCTIONS}, "pow": math.pow, "__builtins__": {}}
#: what float arithmetic and `math` raise where numpy gives inf or nan
_MATH_ERRORS = (OverflowError, ValueError, ZeroDivisionError)
#: for the generated loops: the RK4 loops and the residual's loop
_SWEEP_ENV = {**_SCALAR_ENV, "abs": abs, "len": len, "zip": zip, "enumerate": enumerate, "Struct": Struct,
              "nan": math.nan, "MathError": _MATH_ERRORS}

_FUN_NAMES = {"ln": "log"}


def _float_text(n: int) -> str:
    """An integer constant as a float literal.  Float arithmetic converts an
    int operand to the same double on every operation, so the literal gives
    bit-identical results without that conversion.  An integer beyond the
    float range keeps its int text and still fails where it is used."""
    try:
        return repr(float(n))
    except OverflowError:
        return str(n)


def _emit(e: Expr, names: Mapping[str, str], sub) -> str:
    """Python text for the node `e`: symbols by `names`, children by `sub`.
    The generators hand it the forms `_horner` makes, never an expanded
    normal-form sum."""
    if isinstance(e, Rat):
        v = e.value
        if v.denominator == 1:
            return f"({_float_text(v.numerator)})"
        return f"({v.numerator}/{v.denominator})"
    if isinstance(e, Sym):
        try:
            return names[e.name]
        except KeyError:
            raise CompileError(
                f"'{e.name}' is not a state variable, the base coordinate, or a bound parameter"
            ) from None
    if isinstance(e, Add):
        # a term -1*u as s - u, v - u or -u: see the note on code generation
        parts = []
        for t in e.terms:
            head = t.factors[0] if isinstance(t, Mul) else None
            if isinstance(head, Rat) and head.value == -1:
                u = t.factors[1:]
                parts.append("-" + (sub(u[0]) if len(u) == 1 else "(" + "*".join(map(sub, u)) + ")"))
            else:
                parts.append("+" + sub(t))
        if parts[0][0] == "-" and len(parts) > 1 and parts[1][0] == "+":
            parts[:2] = parts[1], parts[0]
        return "(" + "".join(parts).removeprefix("+") + ")"
    if isinstance(e, Mul):
        return "(" + "*".join(map(sub, e.factors)) + ")"
    if isinstance(e, Pow):
        q = e.exponent
        if q.denominator == 2:
            # u^(k/2) is the normal form of sqrt(u)^k: through sqrt it
            # computes what the model's square root did
            root = f"sqrt({sub(e.base)})"
            return root if q.numerator == 1 else f"({root})**({_float_text(q.numerator)})"
        if q.denominator == 1:
            return f"({sub(e.base)})**({_float_text(int(q))})"
        return f"pow({sub(e.base)}, {float(q)!r})"
    if isinstance(e, Fun):
        return f"{_FUN_NAMES.get(e.name, e.name)}({sub(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def _define(source: str, env):
    """The function `f` that `source` defines, with `env` for globals."""
    scope = dict(env)
    exec(source, scope)
    return scope["f"]


def _lambdify(forms: Sequence[Expr], base: Optional[Sym], symbols: Sequence[Sym], env):
    """`f(t, z)` returning one value per form `_horner` made, with `base`
    read from t, symbols[i] from z[i] and the functions from `env`."""
    names = {} if base is None else {base.name: "t"}
    for i, s in enumerate(symbols):
        names[s.name] = f"z[{i}]"

    def inline(e):
        return _emit(e, names, inline)

    body = ", ".join(map(inline, forms))
    return _define(f"def f(t, z):\n    return ({body},)\n", env)


class _Subtrees:
    """The distinct subtrees of some forms `_horner` made, numbered by
    their text.

    A node's key is its `_emit` text with the children written by number,
    so each node object is emitted once however often it recurs, and equal
    pieces of different Horner forms are one subtree.  `uses[n]` counts
    the places subtree n occurs in: once per expression it is, once per
    distinct parent."""

    def __init__(self, forms: Sequence[Expr], names: Mapping[str, str]):
        self.number, self.uses, seen = {}, [], {}

        def visit(e):
            n = self.number.get(id(e))
            if n is None:
                kids = []

                def child(c):
                    kids.append(visit(c))
                    return f"#{kids[-1]}"

                n = seen.setdefault(_emit(e, names, child), len(self.uses))
                if n == len(self.uses):
                    self.uses.append(0)
                    for k in kids:
                        self.uses[k] += 1
                self.number[id(e)] = n
            return n

        for e in forms:
            self.uses[visit(e)] += 1

    def writer(self, names: Mapping[str, str], temp: str, lines: list):
        """Text of a node of the forms over `names`.  A compound subtree used
        more than once is computed on first use into `temp<n>`, appended to
        `lines`."""
        done = {}

        def text(e):
            n = self.number[id(e)]
            out = done.get(n)
            if out is None:
                out = _emit(e, names, text)
                if self.uses[n] > 1 and not isinstance(e, (Sym, Rat)):
                    lines.append(f"{temp}{n} = {out}")
                    out = f"{temp}{n}"
                done[n] = out
            return out

        return text


def _rk4_lane(f: "FirstOrderSystem", shared: _Subtrees, lane: str, lines: list) -> tuple:
    """Append to `lines` one classical RK4 step of `f` from the states
    `<lane>0, <lane>1, ...`, with stage times t, th, th and tn, and return
    the names of the new states and the texts of stage 1's slopes, F(t, z).
    Every local carries the lane's prefix, so several lanes share one loop
    body.  Each stage inlines the right-hand side over its own locals and
    computes every repeated subtree once; a right-hand side that is a
    state, the base coordinate or a constant is an alias."""
    n = f.dimension
    zs = [f"{lane}{i}" for i in range(n)]
    ks = []
    for stage, t in enumerate(("t", "th", "th", "tn"), 1):
        text = shared.writer({**dict(zip(f.state_names, zs)), f.base.name: t}, f"{lane}c{stage}_", lines)
        k = []
        for i, e in enumerate(f._forms):
            out = text(e)
            if not (out.isidentifier() or isinstance(e, Rat)):
                lines.append(f"{lane}k{stage}_{i} = {out}")
                out = f"{lane}k{stage}_{i}"
            k.append(out)
        ks.append(k)
        if stage < 4:
            coef = "h" if stage == 3 else "hh"
            zs = [f"{lane}y{stage + 1}_{i}" for i in range(n)]
            lines += [f"{y} = {lane}{i} + {coef} * {ki}" for i, (y, ki) in enumerate(zip(zs, k))]
    new = [f"{lane}n{i}" for i in range(n)]
    for i, (a, b, c, d) in enumerate(zip(*ks)):
        lines.append(f"{lane}n{i} = {lane}{i} + h * ({a} + 2.0 * {b} + 2.0 * {c} + {d}) / 6.0")
    return new, ks[0]


def _step_start(f: "FirstOrderSystem") -> tuple:
    """The distinct subtrees of `f`'s forms, the first lines of a
    step and whether any right-hand side reads the base coordinate."""
    timed = f.base in set().union(*map(free_symbols, f.rhs))
    shared = _Subtrees(f._forms, {**{s: f"z{i}" for i, s in enumerate(f.state_names)}, f.base.name: "t"})
    return shared, ["hh = 0.5 * h", *(["th = t + hh"] if timed else [])], timed


def _stop_unless_finite(new: list) -> list:
    """Lines that return `i, None` when a new state is not finite.  x * 0.0
    and x - x are nan just for an inf or nan x, so the test of each state
    runs only when their sum is not finite, which finite states give only
    by overflow."""
    return [f"if ({' + '.join(new)}) * 0.0 != 0.0 and " + " + ".join(f"({v} - {v})" for v in new) + " != 0.0:",
            "    return i, None"]


def _indent(lines: list, depth: int = 1) -> list:
    return [" " * (4 * depth) + line for line in lines]


def _define_loop(params: str, setup: list, head: str, body: list, steps: str, result: str = ""):
    """The generated loop `f(params)`: `setup`, then `body` under the loop
    header `head`.  A math error stops it with `steps`, the number of steps
    done, and the error; otherwise it returns the number of steps, None and
    `result`."""
    source = [
        f"def f({params}):",
        *_indent(setup),
        "    try:",
        "        " + head,
        *_indent(body, 3),
        "    except MathError as ex:",
        f"        return {steps}, ex",
        f"    return len(sizes), None{result}",
    ]
    return _define("\n".join(source) + "\n", _SWEEP_ENV)


def _rk4_loop(f: "FirstOrderSystem", lanes: int):
    """The classical RK4 loop of `f` over a whole window, as generated code.

    With one lane it is `loop(times, sizes, rows, a)` and appends each new
    state to `rows`, an `array("d")`, as the n doubles of one packed row;
    with two it is `loop(times, sizes, rows, eps, a, b)`, which steps the
    flows from `a` and from `b` side by side and appends (b_i - a_i) / eps.
    `sizes[i]` is the step from `times[i]` to `times[i + 1]`.  The loop
    returns `(steps, error)` for `_run`: it stops early, one row short,
    when a new state is not finite (`_stop_unless_finite`) or a math error
    is raised, and `rows` ends with the last valid step.  When no
    right-hand side reads the base coordinate, the loop reads only `sizes`.
    Every float operation runs in the order of the textbook loop
    (k = F(t, z), z + 0.5*h*k, ..., z + h*(k1 + 2*k2 + 2*k3 + k4)/6), so
    its rows are bit-identical to it."""
    n = f.dimension
    names = ("a", "b")[:lanes]
    shared, body, timed = _step_start(f)
    new = []
    for lane in names:
        new += _rk4_lane(f, shared, lane, body)[0]
    body += _stop_unless_finite(new)
    body += [f"{lane}{i} = {lane}n{i}" for lane in names for i in range(n)]
    row = (f"a{i}" if lanes == 1 else f"(b{i} - a{i}) / eps" for i in range(n))
    body.append(f"write(pack({', '.join(row)}))")
    head = "for i, (t, tn, h) in enumerate(zip(times, times[1:], sizes)):" if timed else "for i, h in enumerate(sizes):"
    return _define_loop(
        f"times, sizes, rows, {', '.join(names if lanes == 1 else ('eps', *names))}",
        [*(f"{', '.join(f'{lane}{i}' for i in range(n))}, = {lane}" for lane in names),
         "write = rows.frombytes", f"pack = Struct('{n}d').pack"],
        head, body, "i",
    )


def numpy_eval(e: Expr, env: Mapping[str, object]):
    """Evaluate an expression with names bound to scalars or ndarrays."""
    symbols = sorted(free_symbols(e), key=lambda s: s.name)
    for s in symbols:
        if s.name not in env:
            raise UnboundSymbolError(s.name)
    import numpy as np

    from .horner import _horner

    functions = {**{n: getattr(np, n) for n in _FUNCTIONS}, "pow": np.power, "__builtins__": {}}
    f = _lambdify(_horner((e,)), None, symbols, functions)
    return f(None, [np.asarray(env[s.name]) for s in symbols])[0]


# --------------------------------------------------------------------------
# compiled systems and trajectories

class FirstOrderSystem(Value):
    """Explicit first-order ODE dZ/dt = F(t, Z) with named states.

    A compiled deviation pair has the mirror layout: its first half holds
    the base states, and state half + i is the Jacobi (vertical) partner
    of state i."""

    _fields = ("base", "states", "rhs")

    def __init__(self, base: Sym, states: tuple, rhs: tuple):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "rhs", rhs)
        if not states:
            raise CompileError("a first-order system needs at least one state")
        if len(rhs) != len(states):
            raise CompileError("state and rhs lengths disagree")
        allowed = {*states, base}
        for e in rhs:
            for s in free_symbols(e):
                if s not in allowed:
                    raise CompileError(
                        f"right-hand side references '{s.name}' which is not a state variable"
                    )

    @property
    def dimension(self) -> int:
        return len(self.states)

    @property
    def state_names(self) -> tuple:
        return tuple(s.name for s in self.states)

    @property
    def vertical_mask(self) -> tuple:
        """Per state, whether it belongs to the Jacobi (vertical) half."""
        return tuple(s.kind in VERTICAL_KINDS for s in self.states)

    @cached_property
    def _forms(self) -> list:
        """The right-hand side in the form `horner._horner` makes, which
        every generated function of the system evaluates."""
        from .horner import _horner

        return _horner(self.rhs)

    @cached_property
    def _callable(self):
        return _lambdify(self._forms, self.base, self.states, _SCALAR_ENV)

    def __call__(self, t: float, z) -> tuple:
        return self._callable(t, z)

    @cached_property
    def _loop(self):
        return _rk4_loop(self, 1)

    @cached_property
    def _fd_loop(self):
        return _rk4_loop(self, 2)

    @cached_property
    def base_part(self) -> "FirstOrderSystem":
        """The subsystem of non-vertical states (the original dynamics),
        built once, so its RK4 loops are generated once; it takes its
        forms from this system's, which `_horner` made alike."""
        idx = [i for i, v in enumerate(self.vertical_mask) if not v]
        part = FirstOrderSystem(
            self.base,
            tuple(self.states[i] for i in idx),
            tuple(self.rhs[i] for i in idx),
        )
        vars(part)["_forms"] = [self._forms[i] for i in idx]
        return part


class Trajectory:
    """Immutable grid solution: times strictly increasing, one state row
    per grid point, 17-significant-digit CSV export.

    Its times and rows are flat C doubles, each an `array("d")`: `_rows`
    holds one row of `_width` values per time, whose columns from `_first`
    on are this trajectory's states, one per name.  The two halves of a
    joint run are two such windows on its buffer.  Rows or an array given to
    the constructor are copied into a buffer once.  `times` and `states`
    are read-only ndarray views, both made on the first read of either,
    which is where numpy loads, so integrating and writing CSV never load
    it.  `array` too loads where a buffer is made, so compiling a system
    does not load it."""

    __slots__ = ("_times", "_rows", "_width", "_first", "_arrays", "names", "metadata")

    def __init__(self, times, states, names, metadata: dict):
        from array import array

        names, times = tuple(names), array("d", times)
        if isinstance(states, (list, tuple)):
            states = tuple(map(tuple, states))
            if not states or len(times) != len(states):
                raise SpecError("trajectory needs one state row per time")
            rows, widths = array("d", chain.from_iterable(states)), set(map(len, states))
        else:
            import numpy as np

            states = np.ascontiguousarray(states, dtype=float)
            if states.ndim != 2 or len(times) != states.shape[0]:
                raise SpecError("trajectory needs one state row per time")
            rows, widths = array("d"), {states.shape[1]}
            rows.frombytes(states.reshape(-1).view(np.uint8))  # it reads a buffer of bytes only
        if not all(map(operator.lt, times, times[1:])):
            raise SpecError("trajectory times must be strictly increasing")
        if widths != {len(names)}:
            raise SpecError("one name per state column required")
        self._fill(times, rows, len(names), 0, names, metadata)

    def _fill(self, times: array, rows: array, width: int, first: int, names: tuple, metadata: dict):
        self._times, self._rows, self._width, self._first = times, rows, width, first
        self._arrays, self.names, self.metadata = None, names, metadata
        return self

    def _views(self) -> tuple:
        if self._arrays is None:
            rows = _frozen(self._rows).reshape(len(self._times), self._width)
            self._arrays = _frozen(self._times), rows[:, self._first: self._first + len(self.names)]
        return self._arrays

    @property
    def times(self) -> np.ndarray:
        return self._views()[0]

    @property
    def states(self) -> np.ndarray:
        return self._views()[1]

    def __len__(self):
        return len(self._times)

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.names.index(name)]

    def to_csv(self) -> str:
        # each column is a strided copy of the rows, made in C, and zip
        # reads the values of one line as one tuple
        columns = (self._rows[self._first + i:: self._width] for i in range(len(self.names)))
        row = ",".join(["%.17g"] * (len(self.names) + 1))
        lines = ["t," + ",".join(self.names)]
        lines += map(row.__mod__, zip(self._times, *columns))
        return "\n".join(lines) + "\n"


def _window(times: array, rows: array, width: int, first: int, names: tuple, metadata: dict) -> Trajectory:
    """The trajectory of the `len(names)` columns from `first` on of `rows`,
    `width` values a row, on times already checked: no copy, no check."""
    return object.__new__(Trajectory)._fill(times, rows, width, first, names, metadata)


def _frozen(values: array) -> np.ndarray:
    """A read-only float ndarray on the doubles of `values`."""
    import numpy as np

    a = np.frombuffer(values, float)
    a.setflags(write=False)
    return a


def _param_bindings(spec: BundleSpec) -> dict:
    if spec.unbound_params:
        missing = ", ".join(p.name for p in spec.unbound_params)
        raise CompileError(f"unbound parameters: {missing}; bind numeric values first")
    return {p: Rat(spec.param_value(p)) for p in spec.params}


def compile_system(system: EquationSystem) -> FirstOrderSystem:
    """Reduce a system over a 1-dimensional base to explicit normal form.

    Each equation must be affine in its single unsolved top derivative w;
    equations are processed in order with earlier solutions substituted,
    so one division per equation suffices.  The leading coefficient is
    one partial, de/dw, and the remainder is read from the stored
    expansion of the equation: its monomials without a plain w factor,
    at w = 0.  A field whose derivative never appears, or whose leading
    coefficient vanished identically, is a singular equation.
    """
    spec = system.spec
    if spec.n != 1:
        raise CompileError("compilation requires a 1-dimensional base")
    binding = _param_bindings(spec)
    eqs = [substitute(e, binding) for e in system.equations]

    # the order-0 coordinates in state order (fields, then momenta, then
    # their vertical mirrors), each with its derivative chain up to the
    # spec order; a family's top is the highest chain member that occurs
    stems = list(spec.fibre)
    if spec.momenta:
        stems += [spec.momentum(0, i) for i in range(len(spec.fibre))]
    if spec.vertical:
        stems += [spec.vertical_partner(s) for s in stems]
    step = MultiIndex((0,))
    occurring = set().union(*(free_symbols(e) for e in eqs))
    chains = {}
    for stem in stems:
        chain = [stem]
        while len(chain) <= spec.order:
            chain.append(spec.jet(chain[-1], step))
        found = [j for j, s in enumerate(chain) if s in occurring]
        if not found:
            continue
        top = found[-1]
        if top == 0:
            raise SingularEquationError(
                f"no derivative of '{stem.name}' occurs: the system does not determine its evolution"
            )
        if top > MAX_COMPILE_ORDER:
            raise CompileError(
                f"'{stem.name}' has derivative order {top}, above the supported maximum {MAX_COMPILE_ORDER}"
            )
        chains[stem] = chain[: top + 1]
    if len(eqs) != len(chains):
        raise CompileError(
            f"{len(eqs)} equations for {len(chains)} evolving fields; "
            "compilation needs exactly one equation per field"
        )

    # with the earlier solutions substituted, an equation holds no top but its
    # own, so no solution holds a top either
    tops = {chain[-1] for chain in chains.values()}
    solved = {}
    for e in eqs:
        e = substitute(e, solved)
        present = sorted((s for s in free_symbols(e) if s in tops), key=lambda s: s.name)
        if not present:
            raise CompileError(
                f"equation '{e}' contains no unsolved top derivative"
            )
        if len(present) > 1:
            raise CompileError(
                f"equation '{e}' couples several top derivatives ({', '.join(s.name for s in present)}); "
                "not in solvable normal form"
            )
        w = present[0]
        c = diff(e, w)
        if w in free_symbols(c):
            raise CompileError(
                f"equation '{e}' is not affine in '{w.name}'; not in solvable normal form"
            )
        if c == ZERO:
            raise SingularEquationError(
                f"zero leading coefficient for '{w.name}' in equation '{e}'"
            )
        # e is affine in w, so its monomials with a plain w factor vanish
        # at w = 0; w may still sit inside the atoms of the others
        plain = (w, 1)
        r = _from_poly({m: k for m, k in _poly(e).items() if plain not in m})
        rest = substitute(r, {w: ZERO})
        solved[w] = normalize(Mul((Rat(Fraction(-1)), rest, Pow(c, Fraction(-1)))))

    states, rhs = [], []
    for chain in chains.values():
        states += chain[:-1]
        rhs += [*chain[1:-1], solved[chain[-1]]]
    return FirstOrderSystem(spec.base[0], tuple(states), tuple(rhs))


# --------------------------------------------------------------------------
# integration

def _check_window(t0: float, t1: float, dt: float) -> None:
    """Refuse a non-finite, empty or backwards window, a step size that is
    not positive, and a window of more than MAX_STEPS steps."""
    for name, v in (("t0", t0), ("t1", t1), ("dt", dt)):
        if not math.isfinite(v):
            raise SpecError(f"{name} must be a finite number, got {v}")
    if dt <= 0:
        raise SpecError(f"step size must be positive, got {dt}")
    if t1 <= t0:
        raise SpecError(f"empty window: t1={t1} <= t0={t0}")
    if not (t1 - t0) / dt <= MAX_STEPS:
        raise SpecError(
            f"the window from t0={t0} to t1={t1} at dt={dt} takes more than {MAX_STEPS} steps"
        )


def _grid(t0: float, t1: float, dt: float) -> tuple:
    """`(times, sizes)`: the grid t0 + i*dt, with one shorter final step to
    t1 when dt does not divide the span, and the step sizes between its
    points.  Refuses what `_check_window` refuses, and a grid whose times
    do not strictly increase (dt below the float spacing of the times)."""
    _check_window(t0, t1, dt)
    n_full = int((t1 - t0) / dt + 1e-9)
    while t0 + n_full * dt > t1 + 1e-9 * dt:
        n_full -= 1
    remainder = t1 - (t0 + n_full * dt)
    times = [t0] + [t0 + i * dt for i in range(1, n_full + 1)]
    sizes = [dt] * n_full
    if remainder > 1e-9 * dt or n_full == 0:
        times.append(t1)
        sizes.append(remainder)
    if not all(map(operator.lt, times, times[1:])):
        raise SpecError(
            f"the time grid from t0={t0} in steps of dt={dt} does not strictly increase"
        )
    return times, sizes


def _initial_state(f: FirstOrderSystem, z0) -> tuple:
    """`z0` as floats, refused unless it has one finite value per state."""
    z = tuple(float(v) for v in z0)
    if len(z) != f.dimension:
        raise SpecError(f"initial state has length {len(z)}, system dimension is {f.dimension}")
    for name, v in zip(f.state_names, z):
        if not math.isfinite(v):
            raise SpecError(f"initial state {name}={v} is not a finite number")
    return z


def _run(loop, times: list, *args) -> list:
    """Run a generated loop over the grid and return what it returns after
    its step count and error.  Fewer steps than the grid has mean that a
    math error or a non-finite state stopped it, and the step after them is
    reported with its start as the last valid time."""
    steps, error, *result = loop(times, *args)
    if steps < len(times) - 1:
        t, t_next = times[steps: steps + 2]
        if error is None:
            raise IntegrationError(f"state became non-finite at t={t_next:.6g}", t)
        raise IntegrationError(f"right-hand side failed between t={t:.6g} and t={t_next:.6g}: {error}", t)
    return result


def integrate(f: FirstOrderSystem, z0, t0: float, t1: float, dt: float) -> Trajectory:
    """Classical fixed-step RK4 from t0 to t1, one generated loop over the
    whole window.

    The grid is t0 + i*dt with one shorter final step when dt does not
    divide the span exactly; a span shorter than one step is one step
    from t0 to t1.  Non-finite input, a window of more than MAX_STEPS
    steps and a grid whose times do not strictly increase (dt below the
    float spacing of the times) are refused before any step runs.  Any
    non-finite state or failed right-hand side aborts with the last valid
    time in the error.
    """
    from array import array

    times, sizes = _grid(t0, t1, dt)
    z0 = _initial_state(f, z0)
    rows = array("d", z0)
    _run(f._loop, times, sizes, rows, z0)
    return _window(array("d", times), rows, f.dimension, 0, f.state_names, {"dt": dt, "method": "rk4"})


# --------------------------------------------------------------------------
# Jacobi problems

class JacobiProblem(Value):
    """A deviation pair plus initial data for the base solution and the
    Jacobi field, and the integration window.  The base data must name
    every base state; Jacobi states left out of `jacobi_init` start at 0.
    `compiled`, the system's first-order form, and `_residual_loops` are no
    fields: they take no part in equality or repr."""

    _fields = ("system", "base_init", "jacobi_init", "t0", "t1", "dt")

    def __init__(self, system: EquationSystem, base_init: dict, jacobi_init: dict,
                 t0: float, t1: float, dt: float = DEFAULT_DT):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "dt", dt)
        if system.structure != "deviation-pair":
            raise SpecError("JacobiProblem requires a deviation-pair system")
        _check_window(t0, t1, dt)
        fos = compile_system(system)
        base = {_init_name(k): float(v) for k, v in base_init.items()}
        given = {_init_name(k): float(v) for k, v in jacobi_init.items()}
        for what, data in (("base", base), ("jacobi", given)):
            for k, v in data.items():
                if not math.isfinite(v):
                    raise SpecError(f"{what} initial data {k}={v} is not a finite number")
        want_base = {s.name for s, v in zip(fos.states, fos.vertical_mask) if not v}
        jac = {s.name: given.pop(s.name, 0.0) for s, v in zip(fos.states, fos.vertical_mask) if v}
        if set(base) != want_base:
            raise SpecError(
                f"base initial data must cover exactly {sorted(want_base)}, got {sorted(base)}"
            )
        if given:
            raise SpecError(
                f"jacobi initial data names {sorted(given)}, which are not among the Jacobi states {sorted(jac)}"
            )
        object.__setattr__(self, "base_init", base)
        object.__setattr__(self, "jacobi_init", jac)
        object.__setattr__(self, "compiled", fos)
        object.__setattr__(self, "_residual_loops", {})  # per ladder length

    def initial_state(self) -> tuple:
        data = {**self.base_init, **self.jacobi_init}
        return tuple(data[s.name] for s in self.compiled.states)


def _init_name(k) -> str:
    return k.name if isinstance(k, Sym) else str(k)


def solve_jacobi(prob: JacobiProblem):
    """Integrate the joint deviation flow; returns (base, jacobi) halves,
    the first and second half of the joint state by the mirror layout, as
    two windows on the joint run's times and rows."""
    fos = prob.compiled
    traj = integrate(fos, prob.initial_state(), prob.t0, prob.t1, prob.dt)
    n, half, names = fos.dimension, fos.dimension // 2, fos.state_names
    return tuple(
        _window(traj._times, traj._rows, n, first, names[first: first + half], {**traj.metadata, "component": part})
        for first, part in ((0, "base"), (half, "jacobi"))
    )


def finite_difference_jacobi(prob: JacobiProblem, eps: float) -> Trajectory:
    """Independent linearization oracle: integrate the original system
    from z0 and from z0 + eps * (jacobi data embedded on the base states)
    and return the divided difference on the shared grid.

    Both flows step side by side in one generated loop, each bit-identical
    to `integrate` from its initial state; the first step at which either
    fails is reported.  Converges to the Jacobi field linearly in eps;
    exactly (up to the integrator) for linear systems.
    """
    from array import array

    if not 0 < eps < math.inf:
        raise SpecError(f"finite-difference step must be positive and finite, got {eps}")
    fos = prob.compiled
    base_sys = fos.base_part
    names = fos.state_names[fos.dimension // 2:]
    times, sizes = _grid(prob.t0, prob.t1, prob.dt)
    a = _initial_state(base_sys, (prob.base_init[s.name] for s in base_sys.states))
    b = _initial_state(base_sys, (x + eps * prob.jacobi_init[n] for x, n in zip(a, names)))
    rows = array("d", [(y - x) / eps for x, y in zip(a, b)])
    _run(base_sys._fd_loop, times, sizes, rows, eps, a, b)
    return _window(array("d", times), rows, len(names), 0, names,
                   {"dt": prob.dt, "method": "rk4", "eps": eps, "oracle": "finite-difference"})


# --------------------------------------------------------------------------
# perturbation residual

class ResidualTable(Value):
    """max-over-grid residuals of the original equations on s + eps*psi,
    with the least-squares exponent of the residual-vs-eps law attached."""

    _fields = ("entries", "exponent", "metadata")

    def __init__(self, entries: tuple, exponent: Optional[float], metadata: dict):
        object.__setattr__(self, "entries", entries)  # ((eps, residual), ...)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "metadata", metadata)

    def to_csv(self) -> str:
        lines = ["eps,residual"]
        for eps, r in self.entries:
            lines.append(f"{eps:.17g},{r:.17g}")
        return "\n".join(lines) + "\n"

    def __str__(self):
        body = "\n".join(f"  eps={eps:<12g} residual={r:.6e}" for eps, r in self.entries)
        tail = f"  fitted exponent: {self.exponent:.4f}" if self.exponent is not None else \
            "  fitted exponent: n/a"
        return "residual of the original equations on s + eps*psi (max over grid):\n" + body + "\n" + tail


def _residual_loop(prob: "JacobiProblem", rungs: int):
    """`loop(times, sizes, uniform, h2, a, e0, ..., e<rungs - 1>)`: the joint
    flow of `prob` stepped from `a` as `integrate` steps it, returning
    `(steps, error, w0, ..., w<rungs - 1>)` for `_run`.  w<k> is the largest
    |value| of the original equations on s + e<k>*psi over the interior
    points of the grid, or nan where a value is not finite or a math
    function failed.

    Point i is evaluated once the step from it is done.  The top
    derivatives of s are stage 1's slopes of their chain tails, F(t, z) at
    point i; those of psi are central differences of its tails at i - 1
    and i + 1 with numpy.gradient's arithmetic: (f[i+1] - f[i-1]) / h2 when
    `uniform` (every gap of the grid equal, h2 = 2*gap), else its weights
    for uneven gaps."""
    fos = prob.compiled
    spec = prob.system.spec
    half = fos.dimension // 2
    base_states = fos.states[:half]
    m = len(prob.system.equations) // 2
    binding = _param_bindings(spec)
    originals = [substitute(e, binding) for e in prob.system.equations[:m]]
    # a chain tail is the highest derivative its family keeps as a state; the
    # equations hold one derivative more, the top
    step = MultiIndex((0,))
    tails = [i for i, s in enumerate(base_states) if spec.jet(s, step) not in fos.states]
    tops = [spec.jet(base_states[i], step) for i in tails]

    # per step: the lane's states a{i}, new states an{i} and slopes k1; the
    # tails of psi at the point before, u{j}, and the tops P{j} of psi; per
    # eps: p{i} and q{j} on s + e*psi, the equations r{k} and their peak w
    shared, body, _ = _step_start(fos)
    new, k1 = _rk4_lane(fos, shared, "a", body)
    body += _stop_unless_finite(new)
    point = [
        "if uniform:",
        *(f"    P{j} = ({new[half + i]} - u{j}) / h2" for j, i in enumerate(tails)),
        "else:",
        "    dx1 = t - tp",
        "    dx2 = tn - t",
        "    ga = -dx2 / (dx1 * (dx1 + dx2))",
        "    gb = (dx2 - dx1) / (dx1 * dx2)",
        "    gc = dx1 / (dx2 * (dx1 + dx2))",
        *(f"    P{j} = ga * u{j} + gb * a{half + i} + gc * {new[half + i]}" for j, i in enumerate(tails)),
    ]
    perturbed_names = {
        **{s.name: f"p{i}" for i, s in enumerate(base_states)},
        **{s.name: f"q{j}" for j, s in enumerate(tops)},
        fos.base.name: "t",
    }
    used = set().union(*map(free_symbols, originals))
    from .horner import _horner

    forms = _horner(originals)
    equations = _Subtrees(forms, perturbed_names)
    per_eps = []
    for k in range(rungs):
        values = [f"p{i} = a{i} + e{k} * a{half + i}" for i, s in enumerate(base_states) if s in used]
        values += [f"q{j} = {k1[i]} + e{k} * P{j}" for j, (i, s) in enumerate(zip(tails, tops)) if s in used]
        text = equations.writer(perturbed_names, "cr", values)
        values += [f"r{n} = {text(e)}" for n, e in enumerate(forms)]
        peak = ["w = abs(r0)", *(line for n in range(1, m) for line in (f"x = abs(r{n})", "if x > w:", "    w = x"))]
        # r - r is nan exactly when r is not finite; a nan w<k> stays, as no w
        # compares greater than it
        per_eps += [
            "try:", *_indent(values), "except MathError:", "    " + " = ".join(f"r{n}" for n in range(m)) + " = nan",
            "if " + " + ".join(f"(r{n} - r{n})" for n in range(m)) + " != 0.0:", f"    w{k} = nan",
            "else:", *_indent(peak), f"    if w > w{k}:", f"        w{k} = w",
        ]
    if rungs:
        body += [
            "if i:",
            "    try:", *_indent(point, 2),
            "    except MathError:", "        " + " = ".join(f"w{k}" for k in range(rungs)) + " = nan",
            "    else:", *_indent(per_eps, 2),
        ]
    body += [f"u{j} = a{half + i}" for j, i in enumerate(tails)]
    body += [*(f"a{i} = {v}" for i, v in enumerate(new)), "tp = t", "i += 1"]
    return _define_loop(
        ", ".join(["times, sizes, uniform, h2, a", *(f"e{k}" for k in range(rungs))]),
        [f"{', '.join(f'a{i}' for i in range(fos.dimension))}, = a", "i = 0",
         *(f"w{k} = 0.0" for k in range(rungs))],
        "for t, tn, h in zip(times, times[1:], sizes):", body, "i", "".join(f", w{k}" for k in range(rungs)),
    )


def perturbation_residual(prob: JacobiProblem, eps_list: Iterable[float] = DEFAULT_EPS_LADDER) -> ResidualTable:
    """Evaluate the original equations on the perturbed solution s + eps*psi.

    Derivatives up to order r-1 come from the integrated states; the top
    derivative of the unperturbed part is read off the compiled equation
    itself (exact on the discrete solution), and the top derivative of
    psi is a central finite difference, so the finite-difference noise
    enters only at O(eps * dt^2).  Endpoints are excluded from the max, so
    a grid without an interior point is refused before any step runs.
    One generated loop, built once per problem and ladder length, steps
    the joint flow as `integrate` does, fails as it does, and evaluates
    the whole ladder on the way.  The fitted exponent is the log-log
    least-squares slope over the positive-residual entries, None without
    two distinct eps among them.
    """
    eps_list = tuple(float(e) for e in eps_list)
    for e in eps_list:
        if not 0 <= e < math.inf:
            raise SpecError(f"perturbation size must be non-negative and finite, got {e}")
    times, sizes = _grid(prob.t0, prob.t1, prob.dt)
    if len(times) < 3:
        raise SpecError("grid too short for an interior residual")
    gaps = [b - a for a, b in zip(times, times[1:])]
    z0 = _initial_state(prob.compiled, prob.initial_state())
    loop = prob._residual_loops.get(len(eps_list))
    if loop is None:
        loop = prob._residual_loops[len(eps_list)] = _residual_loop(prob, len(eps_list))
    worst = _run(loop, times, sizes, gaps.count(gaps[0]) == len(gaps), 2.0 * gaps[0], z0, *eps_list)
    for eps, r in zip(eps_list, worst):
        if not math.isfinite(r):
            raise IntegrationError(f"residual evaluation produced non-finite values at eps={eps}", times[-1])
    entries = tuple(zip(eps_list, worst))

    pts = [(math.log(e), math.log(r)) for e, r in entries if e > 0 and r > 0]
    exponent = None
    if len({x for x, _ in pts}) >= 2:
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        exponent = sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)
    return ResidualTable(
        entries,
        exponent,
        {
            "norm": "max-over-grid-interior",
            "dt": prob.dt,
            "top-derivative": "equation on the base part, central differences on the Jacobi part",
        },
    )
