"""Rendering: DSL text round trips, LaTeX conventions, JSON schema, and
the one term writer that a normal form's expansion and a tree both feed."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from deviq import (
    Add,
    DeviqError,
    Fun,
    Mul,
    Pow,
    Rat,
    deviation_equations,
    derive_equations,
    euler_lagrange,
    hamilton_equations,
    load_model,
    normalize,
    parse_model,
    render,
    to_latex,
    to_text,
)
from conftest import (
    EQUATION_MODELS,
    HAMILTONIAN_MODELS,
    LAGRANGIAN_MODELS,
    corpus_model,
)
from grammar import random_model

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from chains import FAMILIES, FORMS, make_chain, model_text  # noqa: E402

GOLDEN_MODELS = Path(__file__).resolve().parent / "golden" / "models"


def test_latex_vertical_dot_convention():
    m = parse_model("base t\nfibre y\nlagrangian y_t^2\n")
    spec = m.spec.vertical_extension()
    e = normalize(spec.symbol("v_y_tt") + spec.symbol("v_y"))
    assert to_latex(e, spec) == r"\dot{y} + \ddot{\dot{y}}"


def test_latex_subscripts_on_higher_base():
    m = corpus_model("laplace")
    ds = deviation_equations(m)
    out = render(ds, "latex")
    assert "u_{x x}" in out or "u_{t t}" in out
    assert r"\dot{u}_{" in out


def test_latex_momenta():
    m = corpus_model("hosc")
    sys = hamilton_equations(m.hamiltonian())
    out = render(sys, "latex")
    assert "p^{t}_{y}" in out
    assert "p^{t}_{y,t}" in out


def test_latex_greek_names():
    m = corpus_model("sphere")
    op = euler_lagrange(m.lagrangian())
    out = render(op, "latex")
    assert r"\theta" in out and r"\phi" in out
    assert r"\ddot{\theta}" in out


def test_json_simple_product():
    m = parse_model("base t\nfibre y\nequation 2*y\n")
    assert json.loads(render(m.payload[0], "json")) == ["*", 2, "y"]


def test_json_envelope_schema():
    m = corpus_model("riccati")
    payload = json.loads(render(deviation_equations(m), "json"))
    assert set(payload) == {"equations", "spec", "structure"}
    assert payload["structure"] == "deviation-pair"
    assert payload["spec"]["base"] == ["t"]
    assert payload["spec"]["fibre"] == ["y"]
    assert payload["spec"]["vertical"] is True
    assert len(payload["equations"]) == 2
    # prefix form: operator head then arguments
    head = payload["equations"][0]
    assert isinstance(head, list) and head[0] in ("+", "*", "^")


def test_json_rationals():
    m = parse_model("base t\nfibre y\nequation y/3\n")
    tree = json.loads(render(m.payload[0], "json"))
    assert tree == ["*", ["/", 1, 3], "y"]


def test_model_file_renders_as_latex_and_json():
    """A model renders one LaTeX line per payload expression, and as JSON
    its kind, payload trees and spec, bound and free parameters apart."""
    m = parse_model("base t\nfibre y\nparam k = 2\nparam c\nlagrangian 1/2*y_t^2 - k*c*cos(y)\n")
    assert render(m, "latex") == "-c \\, k \\, \\cos\\left(y\\right) + \\frac{\\dot{y}^{2}}{2}\n"
    assert json.loads(render(m, "json")) == {
        "kind": "lagrangian",
        "payload": [json.loads(render(m.payload[0], "json"))],
        "spec": {"base": ["t"], "fibre": ["y"], "params": {"k": 2, "c": None}, "order": 2,
                 "momenta": False, "vertical": False},
    }
    m = parse_model("base t\nfibre y u\nequation y_tt + u\nequation u_tt - y*u\n")
    assert render(m, "latex") == "u + \\ddot{y}\n-u \\, y + \\ddot{u}\n"
    assert json.loads(render(m, "json"))["payload"] == [
        ["+", "u", "y_tt"], ["+", ["*", -1, "u", "y"], "u_tt"]]


def test_text_system_layout():
    m = corpus_model("oscillator")
    out = render(deviation_equations(m), "text")
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(line.endswith(" = 0") for line in lines)


def test_corpus_text_round_trip():
    """parse(render(m, text)) reproduces every corpus model exactly."""
    for name in LAGRANGIAN_MODELS + HAMILTONIAN_MODELS + EQUATION_MODELS:
        m = corpus_model(name)
        again = parse_model(render(m, "text"))
        assert again.kind == m.kind, name
        assert again.spec == m.spec, name
        assert again.payload == m.payload, name


def test_expression_text_round_trip_through_parser():
    for name in LAGRANGIAN_MODELS + HAMILTONIAN_MODELS + EQUATION_MODELS:
        m = corpus_model(name)
        for e in m.payload:
            body = "\n".join(
                ["base " + " ".join(m.spec.base_names),
                 "fibre " + " ".join(m.spec.fibre_names)]
                + [f"param {p.name}" for p in m.spec.params]
                + [f"{m.kind} {to_text(e)}"]
            )
            again = parse_model(body)
            assert again.payload[0] == e, name


# --------------------------------------------------------------------------
# one term writer: a normal form is written from its expansion, any other
# node from its tree, and both must give the same bytes

def _writer_models():
    rng = random.Random(23)
    texts = [random_model(rng) for _ in range(60)]
    chain_rng = random.Random(0)
    texts += [model_text(make_chain(family, form, n, chain_rng))
              for family in FAMILIES for form in FORMS for n in (2, 3)]
    return texts


def test_expansion_and_tree_write_the_same_bytes():
    compared = 0
    for i, text in enumerate(_writer_models()):
        model = parse_model(text)
        for make in (derive_equations, deviation_equations):
            try:
                system = make(model)
            except DeviqError:
                continue  # an error message is pinned by the grammar digest
            for e in system.equations:
                if e._expansion is None:
                    continue
                written = to_text(e), to_latex(e, system.spec)
                # made anew by its constructor, without the expansion:
                # `Add(e.terms)` for a sum
                tree = type(e)(*(getattr(e, f) for f in e._fields))
                assert tree == e and tree._expansion is None, i
                assert (to_text(tree), to_latex(tree, system.spec)) == written, i
                compared += 1
    assert compared >= 300


_SPEC = parse_model("base t\nfibre y\nlagrangian y_t^2\n").spec.vertical_extension()
_Y, _YT, _VY = (_SPEC.symbol(n) for n in ("y", "y_t", "v_y"))
_ONE = Rat(Fraction(1))

#: hand-built trees that carry no expansion, with their text and LaTeX
HAND_TREES = {
    "pow-one": (Pow(_Y, Fraction(1)), "y", "y"),
    "pow-of-inverse": (
        Pow(Pow(Add((_Y, _ONE)), Fraction(-1)), Fraction(2)),
        "(1/(y + 1))^2", r"\left(\frac{1}{\left(y + 1\right)}\right)^{2}",
    ),
    "two-rats": (
        Mul((Rat(Fraction(2)), _Y, Rat(Fraction(3, 4)), _YT)),
        "3*y*y_t/2", r"\frac{3 \, y \, \dot{y}}{2}",
    ),
    "rats-cancel": (Mul((Rat(Fraction(2)), Rat(Fraction(1, 2)), _VY)), "v_y", r"\dot{y}"),
    "zero-rat": (Mul((Rat(Fraction(0)), _Y)), "0*y", r"0 \, y"),
    "mul-in-mul": (
        Mul((Rat(Fraction(-1)), Mul((_Y, _YT)), Pow(_Y, Fraction(-2)))),
        "-(y*y_t)/y^2", r"-\frac{\left(y \, \dot{y}\right)}{y^{2}}",
    ),
    "negative-rational": (
        Mul((Rat(Fraction(-5, 3)), Pow(_YT, Fraction(2)), Pow(_Y, Fraction(-1, 2)))),
        "-5*y_t^2/(3*sqrt(y))", r"-\frac{5 \, \dot{y}^{2}}{3 \, \sqrt{y}}",
    ),
    "sum": (
        Add((Mul((Rat(Fraction(-1, 2)), Pow(_VY, Fraction(3)))), Rat(Fraction(-2)),
             Fun("sin", Add((_Y, Mul((Rat(Fraction(-1)), _YT))))),
             Pow(Add((_Y, _YT)), Fraction(1, 2)))),
        "-v_y^3/2 - 2 + sin(y - y_t) + sqrt(y + y_t)",
        r"-\frac{\dot{y}^{3}}{2} - 2 + \sin\left(y - \dot{y}\right) + \sqrt{y + \dot{y}}",
    ),
}


@pytest.mark.parametrize("name", HAND_TREES)
def test_hand_built_tree_is_written_from_its_factors(name):
    tree, text, latex = HAND_TREES[name]
    assert (to_text(tree), to_latex(tree, _SPEC)) == (text, latex)


@pytest.mark.parametrize("name", ["fpu-L4", "pendulum-H4"])
def test_writing_reads_no_terms(name):
    system = deviation_equations(load_model(GOLDEN_MODELS / f"{name}.eqn"))
    render(system, "text")
    render(system, "latex")
    sums = [e for e in system.equations if isinstance(e, Add)]
    assert len(sums) == len(system.equations) >= 8
    assert all(e._terms is None for e in sums)
