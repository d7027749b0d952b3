"""Covariant Hamilton equations and the Hamiltonian commutation check."""

import pytest

from deviq import (
    HamiltonianSystem,
    SpecError,
    VerticalExtensionError,
    check_hamilton_deviation_commute,
    deviation_system,
    hamilton_equations,
    normalize,
    vertical_derivative,
    vertical_hamiltonian,
)
from conftest import HAMILTONIAN_MODELS, corpus_model


def S(spec, name):
    return spec.symbol(name)


def test_hamilton_equations_oscillator():
    m = corpus_model("hosc")
    sys = hamilton_equations(m.hamiltonian())
    spec = sys.spec
    vel = normalize(S(spec, "y_t") - S(spec, "pt_y"))
    mom = normalize(S(spec, "pt_y_t") + S(spec, "omega") ** 2 * S(spec, "y"))
    assert sys.equations == (vel, mom)


def test_hamilton_equations_covariant():
    """Two momenta on a two-dimensional base: one velocity equation per
    direction and a summed divergence in the momentum equation."""
    m = corpus_model("hcov")
    sys = hamilton_equations(m.hamiltonian())
    spec = sys.spec
    assert len(sys.equations) == 3
    vx = normalize(S(spec, "u_x") - S(spec, "px_u"))
    vt = normalize(S(spec, "u_t") - S(spec, "pt_u"))
    div = normalize(S(spec, "px_u_x") + S(spec, "pt_u_t") + S(spec, "u"))
    assert sys.equations == (vx, vt, div)


def test_vertical_derivative_of_a_vertical_density_names_a_vertical_coordinate():
    """The spec's `vertical_partner` refuses the first vertical symbol, in
    name order, that the density depends on, a vertical momentum too."""
    vh = vertical_hamiltonian(corpus_model("hosc").hamiltonian())
    with pytest.raises(VerticalExtensionError, match="^'v_y' is already a vertical coordinate$"):
        vertical_derivative(vh.density, vh.spec)
    with pytest.raises(VerticalExtensionError, match="^'vpt_y' is already a vertical coordinate$"):
        vertical_derivative(S(vh.spec, "pt_y") * S(vh.spec, "vpt_y"), vh.spec)


def test_plain_spec_refuses_a_vertical_hamiltonian():
    spec = corpus_model("hosc").spec
    density = S(spec, "pt_y") ** 2 + S(spec, "v_y") * S(spec, "y")
    with pytest.raises(SpecError, match="'v_y' is vertical, and the spec has no vertical extension"):
        HamiltonianSystem(density, spec)


def test_vertical_hamiltonian_density():
    m = corpus_model("hosc")
    vh = vertical_hamiltonian(m.hamiltonian())
    spec = vh.spec
    assert spec.vertical
    expect = normalize(
        S(spec, "pt_y") * S(spec, "vpt_y")
        + S(spec, "omega") ** 2 * S(spec, "y") * S(spec, "v_y")
    )
    assert vh.density == expect


def test_hamiltonian_rejects_jets():
    m = corpus_model("hosc")
    spec = m.spec
    with pytest.raises(SpecError):
        HamiltonianSystem(normalize(S(spec, "pt_y_t")), spec)


def test_commutation_hamiltonian_models():
    for name in HAMILTONIAN_MODELS:
        rep = check_hamilton_deviation_commute(corpus_model(name).hamiltonian())
        assert rep.passed, f"{name}: {rep}"


def test_commutation_report_header():
    rep = check_hamilton_deviation_commute(corpus_model("hpend").hamiltonian())
    first = str(rep).splitlines()[0]
    assert first.startswith("Hamilton(VH) = V(Hamilton): PASS")


def test_hamilton_deviation_matches_vertical_system():
    """Deviation of the Hamilton equations is pairwise the Hamilton
    system of the vertical Hamiltonian, up to the documented layout."""
    m = corpus_model("hquartic")
    H = m.hamiltonian()
    dev = deviation_system(hamilton_equations(H))
    vh_sys = hamilton_equations(vertical_hamiltonian(H))
    # original velocity equation appears verbatim in both
    assert dev.equations[0] == vh_sys.equations[0]
    # linearized momentum equation of the deviation pair equals the
    # v-variation momentum equation of VH
    assert dev.equations[3] == vh_sys.equations[2]


def test_broken_hamiltonian_fails_check():
    m = corpus_model("hpend")
    H = m.hamiltonian()
    vh = vertical_hamiltonian(H)
    tampered = HamiltonianSystem(
        normalize(vh.density + S(vh.spec, "v_y") ** 2), vh.spec
    )
    a = hamilton_equations(tampered)
    b = deviation_system(hamilton_equations(H))
    assert a.equations != b.equations
