"""Euler-Lagrange derivation, deviation systems, and the commutation check."""

import os
import random
import subprocess
import sys

import pytest

from deviq import (
    BundleSpec,
    EquationSystem,
    Fun,
    Lagrangian,
    SpecError,
    VerticalExtensionError,
    Sym,
    check_el_vertical_commute,
    derive_equations,
    deviation_system,
    equivalent,
    euler_lagrange,
    is_vertical_linear,
    max_jet_order,
    normalize,
    total_derivative,
    vertical_derivative,
    vertical_extension_density,
    vertical_hamiltonian,
)
from deviq.expr import SymbolKind, sin, sqrt
from conftest import LAGRANGIAN_MODELS, corpus_model, first_order_atoms, rand_expr


def S(spec, name):
    return spec.symbol(name)


def test_euler_lagrange_oscillator():
    m = corpus_model("oscillator")
    op = euler_lagrange(m.lagrangian())
    assert len(op.equations) == 1
    spec = op.spec
    expect = normalize(-(S(spec, "y_tt") + S(spec, "omega") ** 2 * S(spec, "y")))
    assert op.equations[0] == expect
    assert max_jet_order(op.equations[0], spec) == 2


def test_euler_lagrange_cubic_velocity():
    m = corpus_model("cubic")
    op = euler_lagrange(m.lagrangian())
    spec = op.spec
    assert op.equations[0] == normalize(-2 * S(spec, "y_t") * S(spec, "y_tt"))


def test_euler_lagrange_laplace():
    m = corpus_model("laplace")
    op = euler_lagrange(m.lagrangian())
    spec = op.spec
    assert op.equations[0] == normalize(-(S(spec, "u_xx") + S(spec, "u_tt")))


def test_euler_lagrange_second_order_density():
    m = corpus_model("elastica")
    op = euler_lagrange(m.lagrangian())
    spec = op.spec
    assert max_jet_order(op.equations[0], spec) == 4
    assert op.equations[0] == S(spec, "y_tttt")


def test_euler_lagrange_sphere():
    m = corpus_model("sphere")
    op = euler_lagrange(m.lagrangian())
    spec = op.spec
    th = S(spec, "theta")
    theta_eq = normalize(
        Fun("sin", th) * Fun("cos", th) * S(spec, "phi_t") ** 2 - S(spec, "theta_tt")
    )
    assert op.equations[0] == theta_eq


def test_vertical_extension_density_oscillator():
    m = corpus_model("oscillator")
    vl = vertical_extension_density(m.lagrangian())
    spec = vl.spec
    assert spec.vertical
    expect = normalize(
        S(spec, "y_t") * S(spec, "v_y_t")
        - S(spec, "omega") ** 2 * S(spec, "y") * S(spec, "v_y")
    )
    assert vl.density == expect
    with pytest.raises(Exception):
        vertical_extension_density(vl)


def test_deviation_system_riccati():
    m = corpus_model("riccati")
    ds = deviation_system(derive_equations(m))
    spec = ds.spec
    assert ds.structure == "deviation-pair"
    assert ds.equations[0] == normalize(S(spec, "y_t") - S(spec, "y") ** 2)
    assert ds.equations[1] == normalize(
        S(spec, "v_y_t") - 2 * S(spec, "y") * S(spec, "v_y")
    )


def test_deviation_block_is_vertical_linear():
    for name in ("pendulum", "sphere", "mexican", "twofield"):
        ds = deviation_system(euler_lagrange(corpus_model(name).lagrangian()))
        half = len(ds.equations) // 2
        for comp in ds.equations[half:]:
            assert is_vertical_linear(comp)


@pytest.mark.parametrize("build,linear", [
    (lambda y, v, vt: 0 * v, True),
    (lambda y, v, vt: v * y**2 + sin(y) * vt, True),
    (lambda y, v, vt: sqrt(y) * v, True),
    (lambda y, v, vt: y + v, False),
    (lambda y, v, vt: v**2, False),
    (lambda y, v, vt: v * vt, False),
    (lambda y, v, vt: sin(v), False),
    (lambda y, v, vt: sqrt(v) * sqrt(vt), False),
    (lambda y, v, vt: vt**2 / v, False),
    (lambda y, v, vt: sqrt(v**2), False),
], ids=[
    "zero", "linear", "root-of-base", "constant-term", "square", "product",
    "in-function", "half-powers", "negative-power", "root-of-square",
])
def test_is_vertical_linear(build, linear):
    spec = BundleSpec.make(["t"], ["y"], order=1).vertical_extension()
    e = build(*(S(spec, n) for n in ("y", "v_y", "v_y_t")))
    assert is_vertical_linear(e) is linear


@pytest.mark.parametrize("name,kind,decoded", [
    ("y_t", SymbolKind.FIBRE, "jet-coordinate"),
    ("y", SymbolKind.JET, "fibre-coordinate"),
    ("v_y", SymbolKind.FIBRE, "vertical-coordinate"),
    ("y_t", SymbolKind.VERTICAL, "jet-coordinate"),
])
def test_symbol_kind_must_match_its_name(name, kind, decoded):
    spec = BundleSpec.make(["t"], ["y"], order=2).vertical_extension()
    with pytest.raises(SpecError, match=f"'{name}' is a {decoded}, not a {kind.value}"):
        EquationSystem((Sym(name, kind) - S(spec, "y"),), spec)


def test_deviation_system_rejects_vertical_input():
    m = corpus_model("riccati")
    ds = deviation_system(derive_equations(m))
    with pytest.raises(VerticalExtensionError, match="already a vertical extension"):
        deviation_system(ds)
    # a vertical symbol on a plain spec is refused when the system is built
    with pytest.raises(SpecError, match="'v_y' is vertical, and the spec has no vertical extension"):
        EquationSystem((Sym("v_y", SymbolKind.VERTICAL) - S(m.spec, "y_t"),), m.spec)


@pytest.mark.parametrize("model,make,extend", [
    ("pendulum", lambda m: m.spec, BundleSpec.vertical_extension),
    ("pendulum", lambda m: m.lagrangian(), vertical_extension_density),
    ("pendulum", derive_equations, deviation_system),
    ("hosc", lambda m: m.hamiltonian(), vertical_hamiltonian),
], ids=["spec", "lagrangian", "system", "hamiltonian"])
def test_a_second_vertical_extension_is_refused_by_the_spec(model, make, extend):
    """Every entry point extends its spec, and `BundleSpec.vertical_extension`
    alone refuses an extended one, so all four give one message."""
    once = extend(make(corpus_model(model)))
    with pytest.raises(VerticalExtensionError) as info:
        extend(once)
    assert str(info.value) == "the spec is already a vertical extension"
    tb = info.tb
    while tb.tb_next:
        tb = tb.tb_next
    assert tb.tb_frame.f_code.co_name == "vertical_extension"


def test_vertical_derivative_of_a_vertical_input_names_the_coordinate():
    vspec = corpus_model("pendulum").spec.vertical_extension()
    with pytest.raises(VerticalExtensionError, match="^'v_y' is already a vertical coordinate$"):
        vertical_derivative(S(vspec, "y") * S(vspec, "v_y"), vspec)


def test_plain_spec_refuses_a_vertical_density():
    spec = corpus_model("riccati").spec
    assert not spec.vertical
    y, y_t, v_y = (S(spec, name) for name in ("y", "y_t", "v_y"))
    with pytest.raises(SpecError, match="'v_y' is vertical, and the spec has no vertical extension"):
        Lagrangian(y_t**2 / 2 + v_y * y, spec)
    # on the vertical extension the same density is a Lagrangian
    vspec = spec.vertical_extension()
    assert Lagrangian(y_t**2 / 2 + v_y * y, vspec).order == 1


def test_a_system_with_two_faults_reports_the_same_one_in_every_run():
    """`v_y` is vertical on a plain spec and `y_ttt` is above its order 1:
    the symbols are checked in name order, whatever the hash order of their
    set, so every run names `v_y`."""
    script = (
        "from deviq import BundleSpec, EquationSystem, SpecError\n"
        "spec = BundleSpec.make(['t'], ['y'])\n"
        "try:\n"
        "    EquationSystem((spec.symbol('v_y') + spec.symbol('y_ttt'),), spec)\n"
        "except SpecError as ex:\n"
        "    print(ex)\n"
    )
    messages = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        messages.add(subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env).stdout)
    assert messages == {"'v_y' is vertical, and the spec has no vertical extension\n"}


def test_equation_system_validation():
    m = corpus_model("riccati")
    ds = deviation_system(derive_equations(m))
    with pytest.raises(SpecError):
        EquationSystem(ds.equations[:1], ds.spec, "deviation-pair")
    nonlinear = normalize(S(ds.spec, "v_y") ** 2)
    with pytest.raises(SpecError):
        EquationSystem((ds.equations[0], nonlinear), ds.spec, "deviation-pair")


def test_commutation_lagrangian_models():
    for name in ("oscillator", "pendulum", "sphere", "laplace", "expden"):
        rep = check_el_vertical_commute(corpus_model(name).lagrangian())
        assert rep.passed, f"{name}: {rep}"


def test_commutation_report_text():
    rep = check_el_vertical_commute(corpus_model("pendulum").lagrangian())
    text = str(rep)
    assert text.splitlines()[0] == "δ(VL) = V(δL): PASS (2 pairs)"


def test_commutation_detects_broken_pairing():
    """A corrupted vertical density must fail the check, not pass silently."""
    m = corpus_model("pendulum")
    vl = vertical_extension_density(m.lagrangian())
    spec = vl.spec
    wrong = Lagrangian(
        normalize(vl.density + S(spec, "v_y") * S(spec, "y")), spec
    )
    a = euler_lagrange(wrong)
    b = euler_lagrange(m.lagrangian())
    left = a.equations[0]
    right = b.equations[0]
    assert not bool(equivalent(left, right))


def test_null_lagrangian_property():
    """Total derivatives have identically vanishing Euler-Lagrange terms."""
    spec = BundleSpec.make(["t"], ["y"], order=1)
    atoms = first_order_atoms(spec)
    wide = spec.with_order(2)
    for trial in range(8):
        rng = random.Random(300 + trial)
        f = rand_expr(rng, atoms, 3)
        df = total_derivative(f, 0, wide)
        op = euler_lagrange(Lagrangian(normalize(df), wide))
        for comp in op.equations:
            assert normalize(comp) == normalize(0)


@pytest.mark.parametrize("name", LAGRANGIAN_MODELS)
def test_lagrangian_order_is_read_from_its_density(name):
    m = corpus_model(name)
    d = m.payload[0]
    L = Lagrangian(d, m.spec)
    assert L.order == max_jet_order(d, m.spec)
    assert vertical_extension_density(L).order == L.order


def test_lagrangian_make_infers_order():
    m = corpus_model("elastica")
    L = m.lagrangian()
    assert L.order == 2
    assert L.spec.order >= 2


def test_multi_field_component_count():
    m = corpus_model("twofield")
    op = euler_lagrange(m.lagrangian())
    assert len(op.equations) == 2
    ds = deviation_system(op)
    assert len(ds.equations) == 4
