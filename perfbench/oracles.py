"""Oracles that share no code with deviq: sympy for the symbolic layers,
scipy for the Jacobi fields.

Every function here works from the model text or a `Chain`'s
coefficients and from deviq's *output* (rendered text, JSON, CSV, or the
compiled right-hand side called as a black box).  Imported only after
the timed region and the peak-RSS reading, because sympy and scipy are
large.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field

import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp
from sympy.calculus.euler import euler_equations

from chains import Chain

FUNCS = {"sin": sp.sin, "cos": sp.cos, "tan": sp.tan, "exp": sp.exp, "ln": sp.log, "sqrt": sp.sqrt}
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_KEYWORDS = ("base", "fibre", "param", "lagrangian", "hamiltonian", "equation")

#: relative tolerance of the numeric fallback in `same`
SAME_TOL = 1e-9


def to_sympy(text: str) -> sp.Expr:
    """Parse one expression in deviq's text grammar (`^` is power)."""
    local = {n: sp.Symbol(n) for n in set(_NAME.findall(text)) if n not in FUNCS}
    local.update(FUNCS)
    return sp.sympify(text.replace("^", "**"), locals=local, rational=True)


@dataclass
class SModel:
    """A model read independently of deviq: names and sympy payloads."""

    base: list
    fibre: list
    params: dict  # name -> sympy Rational, or None when unbound
    kind: str
    payload: list = field(default_factory=list)
    coeffs: dict = field(default_factory=dict)  # symbol -> value deviq sees as a literal

    def momentum(self, b: str, f: str) -> str:
        return f"p{b}_{f}"


def parse_eqn(text: str) -> SModel:
    m = SModel([], [], {}, "")
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head not in _KEYWORDS:
            raise ValueError(f"not a model line: {raw!r}")
        if head == "base":
            m.base = rest.split()
        elif head == "fibre":
            m.fibre = rest.split()
        elif head == "param":
            name, _, value = rest.partition("=")
            m.params[name.strip()] = to_sympy(value) if value.strip() else None
        else:
            m.kind = head
            m.payload.append(to_sympy(rest))
    return m


def chain_model(c: Chain) -> SModel:
    """The chain's model built from its coefficients alone.  They enter as
    symbols with their values in `coeffs`, so one derivation serves every
    draw of the same shape (see `ChainOracle`)."""
    coeffs = {}

    def R(tag, value):
        s = sp.Symbol(f"coef_{tag}")
        coeffs[s] = sp.Rational(value.numerator, value.denominator)
        return s

    q = [sp.Integer(0)] + [sp.Symbol(f) for f in c.fields] + [sp.Integer(0)]
    if c.family == "fpu":
        V = 0
        for j, (k, a, b) in enumerate(c.springs):
            d = q[j + 1] - q[j]
            V += R(f"k{j}", k) * d**2 + R(f"a{j}", a) * d**3 + R(f"b{j}", b) * d**4
    else:
        V = -sum(R(f"g{i}", g) * sp.cos(q[i + 1]) for i, g in enumerate(c.gravity))
        V -= sum(R(f"j{j}", k) * sp.cos(q[j + 2] - q[j + 1]) for j, k in enumerate(c.coupling))
    mom = "{}_t" if c.form == "lagrangian" else "pt_{}"
    T = sum(R(f"m{i}", m) * sp.Symbol(mom.format(f)) ** 2 for i, (m, f) in enumerate(zip(c.kinetic, c.fields)))
    payload = T - V if c.form == "lagrangian" else T + V
    return SModel(["t"], list(c.fields), {}, c.form, [payload], coeffs)


# --------------------------------------------------------------------------
# equations of motion and their linearization


def _decode_suffix(suffix: str, base: list):
    """Base names spelled by a jet suffix, or None."""
    out, i = [], 0
    while i < len(suffix):
        for b in sorted(base, key=len, reverse=True):
            if suffix.startswith(b, i):
                out.append(b)
                i += len(b)
                break
        else:
            return None
    return out


def _jet_name(f: str, derivs: list, base: list) -> str:
    counts = {b: 0 for b in base}
    for b in derivs:
        counts[b] += 1
    suffix = "".join(b * counts[b] for b in base)
    return f"{f}_{suffix}" if suffix else f


def euler_lagrange(m: SModel) -> list:
    """sympy's `euler_equations`, mapped back to jet symbols."""
    xs = [sp.Symbol(b) for b in m.base]
    funcs = {f: sp.Function(f)(*xs) for f in m.fibre}
    to_func = {}
    L = m.payload[0]
    for s in L.free_symbols:
        f, _, suffix = s.name.partition("_")
        if f in funcs:
            derivs = _decode_suffix(suffix, m.base) if suffix else []
            to_func[s] = sp.diff(funcs[f], *[sp.Symbol(b) for b in derivs]) if derivs else funcs[f]
    eqs = euler_equations(L.xreplace(to_func), [funcs[f] for f in m.fibre], xs)
    out = []
    inv = {v: k for k, v in funcs.items()}
    for eq in eqs:
        e = eq.lhs - eq.rhs
        jets = {}
        for d in e.atoms(sp.Derivative):
            f = inv[d.expr]
            jets[d] = sp.Symbol(_jet_name(f, [v.name for v, n in d.variable_count for _ in range(n)], m.base))
        out.append(e.xreplace(jets).xreplace({fn: sp.Symbol(f) for f, fn in funcs.items()}))
    return out


def hamilton_equations(m: SModel) -> list:
    """Covariant Hamilton equations written directly: velocity rows
    y_b - dH/dp^b_y field-major, then sum_b d_b p^b_y + dH/dy per field."""
    H = m.payload[0]
    eqs = []
    for f in m.fibre:
        for b in m.base:
            eqs.append(sp.Symbol(f"{f}_{b}") - sp.diff(H, sp.Symbol(m.momentum(b, f))))
    for f in m.fibre:
        div = sum(sp.Symbol(f"{m.momentum(b, f)}_{b}") for b in m.base)
        eqs.append(div + sp.diff(H, sp.Symbol(f)))
    return eqs


def equations_of_motion(m: SModel) -> list:
    if m.kind == "lagrangian":
        return euler_lagrange(m)
    if m.kind == "hamiltonian":
        return hamilton_equations(m)
    return list(m.payload)


def vertical_name(m: SModel, name: str) -> str:
    """README's naming table: v_<coordinate> for the fibre family,
    v<momentum> for momenta and their jets."""
    head = name.split("_")
    if m.kind == "hamiltonian" and len(head) >= 2 and head[1] in m.fibre and head[0][1:] in m.base and head[0][:1] == "p":
        return "v" + name
    return "v_" + name


def _dependent(m: SModel, s: sp.Symbol) -> bool:
    return s.name not in m.base and s.name not in m.params and s not in m.coeffs


def linearize(m: SModel, e: sp.Expr) -> sp.Expr:
    """d_V e: the sympy Jacobian of e times the vertical partners."""
    syms = sorted((s for s in e.free_symbols if _dependent(m, s)), key=lambda s: s.name)
    return sum(sp.diff(e, s) * sp.Symbol(vertical_name(m, s.name)) for s in syms)


def deviation(m: SModel, eqs: list) -> list:
    return list(eqs) + [linearize(m, e) for e in eqs]


class ChainOracle:
    """Equations of motion and deviation pairs of chains, derived once per
    shape with symbolic coefficients and instantiated per draw."""

    def __init__(self):
        self._shapes = {}

    def derive(self, c: Chain):
        """(model, equations of motion, deviation pair), coefficients inlined."""
        sm = chain_model(c)
        key = (c.family, c.form, c.n)
        if key not in self._shapes:
            eom = equations_of_motion(sm)
            self._shapes[key] = (eom, [linearize(sm, e) for e in eom])
        eom, vblock = self._shapes[key]
        eom = [e.xreplace(sm.coeffs) for e in eom]
        dev = eom + [e.xreplace(sm.coeffs) for e in vblock]
        return SModel(sm.base, sm.fibre, {}, sm.kind), eom, dev


# --------------------------------------------------------------------------
# comparing deviq's output with the oracle


def same(a: sp.Expr, b: sp.Expr, rng: random.Random) -> bool:
    """Exact equality after expansion, else agreement at random points."""
    d = sp.expand(a - b)
    if d == 0:
        return True
    syms = sorted(d.free_symbols | a.free_symbols | b.free_symbols, key=lambda s: s.name)
    for _ in range(3):
        pt = {s: sp.Float(rng.uniform(0.3, 1.2), 30) for s in syms}
        va, vd = complex(a.evalf(30, subs=pt)), complex(d.evalf(30, subs=pt))
        if not abs(vd) <= SAME_TOL * (1.0 + abs(va)):
            return False
    return True


def same_system(got: list, want: list, rng: random.Random) -> str:
    """'' when the systems agree row by row, else the reason."""
    if len(got) != len(want):
        return f"{len(got)} equations, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if not same(g, w, rng):
            return f"equation {i + 1} differs from the oracle: {g} vs {w}"
    return ""


def text_equations(text: str) -> list:
    """Rows of `... = 0` text output as sympy expressions."""
    rows = [r for r in text.split("\n") if r.strip()]
    out = []
    for r in rows:
        if not r.endswith(" = 0"):
            raise ValueError(f"not an equation row: {r!r}")
        out.append(to_sympy(r[: -len(" = 0")]))
    return out


def _json_expr(node):
    if isinstance(node, bool):
        raise ValueError("boolean in expression tree")
    if isinstance(node, int):
        return sp.Integer(node)
    if isinstance(node, str):
        return sp.Symbol(node)
    head, *args = node
    if head == "/" and all(isinstance(a, int) for a in args):
        return sp.Rational(args[0], args[1])
    vals = [_json_expr(a) for a in args]
    if head == "+":
        return sp.Add(*vals)
    if head == "*":
        return sp.Mul(*vals)
    if head == "^":
        return vals[0] ** vals[1]
    if head in FUNCS:
        return FUNCS[head](*vals)
    raise ValueError(f"unknown JSON node {head!r}")


def json_equations(text: str) -> list:
    return [_json_expr(e) for e in json.loads(text)["equations"]]


def latex_rows_ok(text: str, count: int) -> str:
    """LaTeX is not parsed back; its rows are counted and shaped."""
    rows = [r for r in text.split("\n") if r.strip()]
    if len(rows) != count:
        return f"{len(rows)} LaTeX rows, expected {count}"
    if not all(r.endswith(" = 0") and len(r) > 4 for r in rows):
        return "a LaTeX row is not of the form '... = 0'"
    return ""


def planted_is_caught(want: list, rng: random.Random) -> bool:
    """Self-test: one equation altered by a small term must be rejected."""
    bad = list(want)
    i = rng.randrange(len(bad))
    s = sorted(bad[i].free_symbols, key=lambda s: s.name)
    bad[i] = bad[i] + sp.Rational(1, 7) * (s[0] if s else 1)
    return same_system(bad, want, rng) != ""


# --------------------------------------------------------------------------
# first-order form and Jacobi fields


def _shift(name: str) -> str:
    """Jet shift along a one-dimensional base named t."""
    stem, _, last = name.rpartition("_")
    if stem and set(last) == {"t"}:
        return name + "t"
    return name + "_t"


def layout(m: SModel, eqs: list):
    """States and top derivatives of a deviation pair on base t.

    States are the derivative chains below each family's highest
    derivative, base families first (fields, then momenta, in declaration
    order) and their vertical mirrors second: README's CSV column order.
    """
    names = {s.name for e in eqs for s in e.free_symbols}
    families = list(m.fibre)
    if m.kind == "hamiltonian":
        families += [m.momentum("t", f) for f in m.fibre]
    families += [vertical_name(m, f) for f in families]
    states, tops = [], []
    for fam in families:
        chain = [fam]
        for _ in range(8):
            chain.append(_shift(chain[-1]))
        top = max(i for i, n in enumerate(chain) if n in names or i == 0)
        states += chain[:top]
        tops.append(chain[top])
    return states, tops


def bind_params(m: SModel, eqs: list) -> list:
    binding = {sp.Symbol(k): v for k, v in m.params.items()}
    return [e.xreplace(binding) for e in eqs]


def rhs_at(eqs: list, states: list, tops: list, t: float, z) -> list:
    """dz/dt at one point: the equations with the state substituted are
    linear in the top derivatives, solved numerically."""
    point = {sp.Symbol("t"): sp.Float(t, 30)}
    point.update({sp.Symbol(n): sp.Float(v, 30) for n, v in zip(states, z)})
    topsyms = [sp.Symbol(n) for n in tops]
    E = sp.Matrix([sp.expand(e.xreplace(point)) for e in eqs])
    A = np.array(E.jacobian(topsyms).evalf(), dtype=float)
    b = np.array(E.xreplace({s: 0 for s in topsyms}).evalf(), dtype=float).ravel()
    top_of = dict(zip(tops, np.linalg.solve(A, -b)))
    value = dict(zip(states, z))
    return [top_of[n] if n in top_of else value[n] for n in map(_shift, states)]


@dataclass
class FirstOrder:
    """dz/dt = F(t, z) for a deviation pair, solved by sympy."""

    states: list
    tops: list
    rhs: object  # callable (t, z) -> list

    def __call__(self, t, z):
        return self.rhs(t, z)


def first_order(m: SModel, eqs: list) -> FirstOrder:
    """Symbolic solve for the top derivatives, compiled by lambdify."""
    eqs = [sp.expand(e) for e in bind_params(m, eqs)]
    states, tops = layout(m, eqs)
    topsyms = [sp.Symbol(n) for n in tops]
    E = sp.Matrix(eqs)
    A = E.jacobian(topsyms)
    b = E.xreplace({s: 0 for s in topsyms})
    if A.is_diagonal():
        sol = [-b[i] / A[i, i] for i in range(len(tops))]
    else:
        sol = list(A.LUsolve(-b))
    top_of = dict(zip(tops, sol))
    z = sp.symbols(f"z0:{len(states)}")
    sub = {sp.Symbol(n): z[i] for i, n in enumerate(states)}
    exprs = [sp.sympify(top_of.get(_shift(n), sp.Symbol(_shift(n)))).xreplace(sub) for n in states]
    f = sp.lambdify((sp.Symbol("t"), z), exprs, modules="math", cse=True)
    return FirstOrder(states, tops, lambda t, zz: f(t, tuple(zz)))


def reference_flow(fo: FirstOrder, z0, t0: float, t1: float, t_eval=None):
    """DOP853 at tight tolerances; returns (times, states[k, i])."""
    sol = solve_ivp(
        lambda t, z: fo(t, z), (t0, t1), np.asarray(z0, dtype=float),
        method="DOP853", rtol=1e-12, atol=1e-12, t_eval=t_eval,
    )
    if not sol.success:
        raise RuntimeError(f"solve_ivp failed: {sol.message}")
    return sol.t, sol.y.T


def close(got, want, tol: float) -> float:
    """Largest error relative to (1 + |want|), and 0 when within tol."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))
    return 0.0 if err <= tol else err


def residual_ok(worst: float, exponent) -> bool:
    """Acceptance criterion 4: a quadratic law with exponent in [1.9, 2.1],
    or a residual at the floor for equations linear along the data."""
    if worst < 1e-8:
        return True
    return exponent is not None and 1.9 <= exponent <= 2.1 and math.isfinite(worst)
