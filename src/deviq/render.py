"""Renderers: plain text (model-file syntax), LaTeX, and JSON.

Text output of an expression round-trips through the model-file parser;
text output of a whole model is a complete model file.  LaTeX follows
the mechanics convention on a one-dimensional base: derivatives are
dots, vertical coordinates carry an inner dot (so ``v_y_tt`` renders as
``\\ddot{\\dot{y}}``), and higher-dimensional bases fall back to
subscript multi-indices (``u_{x t}``).  Momenta render as ``p^{t}_{y}``
with jet suffixes after a comma.  JSON encodes expressions as
prefix-form nested arrays, e.g. ``["+", ["*", 2, "y"], ["^", "y_t", 2]]``,
and systems as an object ``{"equations": [...], "spec": {...}}``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .bundle import BundleSpec
from .errors import SpecError
from .expr import (
    Add,
    Expr,
    Fun,
    Mul,
    Pow,
    Rat,
    Sym,
    SymbolKind,
    _HALF,
    _join_terms,
    _split_term,
    as_expr,
    to_text,
)
from .hamiltonian import HamiltonianSystem
from .model import ModelFile
from .variational import EquationSystem, Lagrangian

__all__ = ["render", "to_latex", "json_tree", "spec_json"]

FORMATS = ("text", "latex", "json")

_GREEK = (
    "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi "
    "pi rho sigma tau upsilon phi chi psi omega "
    "Gamma Delta Theta Lambda Xi Pi Sigma Upsilon Phi Psi Omega "
    "varepsilon vartheta varphi"
).split()


def _name_tex(name: str) -> str:
    if name in _GREEK:
        return "\\" + name
    if len(name) == 1:
        return name
    return r"\mathrm{" + name + "}"


def _symbol_tex(sym: Sym, spec: Optional[BundleSpec]) -> str:
    name = sym.name
    if spec is None or sym.kind in (SymbolKind.BASE, SymbolKind.PARAMETER):
        if "_" not in name:
            return _name_tex(name)
        return r"\mathrm{" + name.replace("_", r"\_") + "}"
    c = spec.classify(name)
    if c is None:  # foreign symbol: escape and move on
        return r"\mathrm{" + name.replace("_", r"\_") + "}"
    if c.mom_base is None:
        core = _name_tex(spec.fibre[c.field].name)
        if c.vertical:
            core = r"\dot{" + core + "}"
        k = c.index.order
        if k == 0:
            return core
        if spec.n == 1 and k <= 4:
            return "\\" + "d" * k + "ot{" + core + "}"
        subs = " ".join(_name_tex(spec.base[i].name) for i in c.index.entries)
        return core + "_{" + subs + "}"
    core = r"\dot{p}" if c.vertical else "p"
    sup = _name_tex(spec.base[c.mom_base].name)
    sub = _name_tex(spec.fibre[c.field].name)
    if c.index.order:
        sub += "," + " ".join(_name_tex(spec.base[i].name) for i in c.index.entries)
    return core + "^{" + sup + "}_{" + sub + "}"


def _atom_tex(e: Expr, spec) -> str:
    if isinstance(e, Rat):
        q = e.value
        if q.denominator == 1:
            return str(q.numerator) if q >= 0 else f"({q.numerator})"
        return r"\frac{%d}{%d}" % (q.numerator, q.denominator)
    if isinstance(e, Sym):
        return _symbol_tex(e, spec)
    if isinstance(e, Fun):
        arg = to_latex(e.arg, spec)
        if e.name == "sqrt":
            return r"\sqrt{" + arg + "}"
        return "\\" + e.name + r"\left(" + arg + r"\right)"
    if isinstance(e, Pow) and e.exponent == _HALF:
        return r"\sqrt{" + to_latex(e.base, spec) + "}"
    return r"\left(" + to_latex(e, spec) + r"\right)"


def _pow_tex(atom: Expr, q, spec) -> str:
    if q == 1:
        return _atom_tex(atom, spec)
    if q == _HALF:
        return r"\sqrt{" + to_latex(atom, spec) + "}"
    base = _atom_tex(atom, spec)
    if "^" in base:  # avoid double superscripts on momenta
        base = "{" + base + "}"
    exp = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return base + "^{" + exp + "}"


def _term_tex(pairs, coeff, spec) -> str:
    sign, numer, denom = _split_term(pairs, coeff, lambda atom, q: _pow_tex(atom, q, spec))
    top = r" \, ".join(numer)
    if not denom:
        return sign + top
    return sign + r"\frac{" + top + "}{" + r" \, ".join(denom) + "}"


def to_latex(e, spec: Optional[BundleSpec] = None) -> str:
    return _join_terms(as_expr(e), lambda pairs, coeff: _term_tex(pairs, coeff, spec))


def _json_rat(q: Fraction):
    return q.numerator if q.denominator == 1 else ["/", q.numerator, q.denominator]


def json_tree(e):
    """Prefix-form nested-array encoding of an expression."""
    e = as_expr(e)
    if isinstance(e, Rat):
        return _json_rat(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Add):
        return ["+", *(json_tree(t) for t in e.terms)]
    if isinstance(e, Mul):
        return ["*", *(json_tree(f) for f in e.factors)]
    if isinstance(e, Pow):
        return ["^", json_tree(e.base), _json_rat(e.exponent)]
    if isinstance(e, Fun):
        return [e.name, json_tree(e.arg)]
    raise SpecError(f"cannot encode {e!r} as JSON")


def spec_json(spec: BundleSpec) -> dict:
    bound = dict(spec.param_values)
    return {
        "base": list(spec.base_names),
        "fibre": list(spec.fibre_names),
        "params": {p.name: _json_rat(bound[p.name]) if p.name in bound else None
                   for p in spec.params},
        "order": spec.order,
        "momenta": spec.momenta,
        "vertical": spec.vertical,
    }


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _model_text(m: ModelFile) -> str:
    lines = ["base " + " ".join(m.spec.base_names)]
    lines.append("fibre " + " ".join(m.spec.fibre_names))
    bound = dict(m.spec.param_values)
    for p in m.spec.params:
        if p.name in bound:
            lines.append(f"param {p.name} = {_frac_text(bound[p.name])}")
        else:
            lines.append(f"param {p.name}")
    for e in m.payload:
        lines.append(f"{m.kind} {to_text(e)}")
    return "\n".join(lines) + "\n"


def render(obj, format: str = "text", spec: Optional[BundleSpec] = None) -> str:
    """Render an expression, an equation system, or a whole model.

    Expressions render bare; systems render one `... = 0` line per
    equation (text, latex) or as `{"equations": [...], "spec": {...}}`
    (json).  A ModelFile renders as a complete model file in text form.
    """
    if format not in FORMATS:
        raise SpecError(f"unknown format '{format}'; expected one of {', '.join(FORMATS)}")
    if format == "json":
        import json  # only JSON output needs it, and it costs every cold start

    if isinstance(obj, ModelFile):
        if format == "text":
            return _model_text(obj)
        if format == "latex":
            return "\n".join(to_latex(e, obj.spec) for e in obj.payload) + "\n"
        return json.dumps(
            {"kind": obj.kind, "payload": [json_tree(e) for e in obj.payload],
             "spec": spec_json(obj.spec)},
            indent=2,
        ) + "\n"

    if isinstance(obj, (Lagrangian, HamiltonianSystem)):
        return render(obj.density, format, spec=obj.spec)

    if isinstance(obj, EquationSystem):
        if format == "text":
            return "\n".join(to_text(e) + " = 0" for e in obj.equations) + "\n"
        if format == "latex":
            return "\n".join(to_latex(e, obj.spec) + " = 0" for e in obj.equations) + "\n"
        payload = {"equations": [json_tree(e) for e in obj.equations], "spec": spec_json(obj.spec),
                   "structure": obj.structure}
        return json.dumps(payload, indent=2) + "\n"

    e = as_expr(obj)
    if format == "text":
        return to_text(e)
    if format == "latex":
        return to_latex(e, spec)
    return json.dumps(json_tree(e))
