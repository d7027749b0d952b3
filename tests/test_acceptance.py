"""Acceptance gate: the eight release criteria, one test per criterion.

Each test asserts the criterion at its stated tolerance and prints a
single summary line (visible with ``pytest tests/test_acceptance.py -v -s``).
Tolerances and brackets here are frozen; loosening them is a release
regression, not a test fix.
"""

import math
import subprocess
import sys
import random
import time
from fractions import Fraction

import numpy as np

from deviq import (
    BundleSpec,
    JacobiProblem,
    Lagrangian,
    Rat,
    Sym,
    check_model,
    derive_equations,
    deviation_equations,
    deviation_system,
    equivalent,
    euler_lagrange,
    finite_difference_jacobi,
    hamilton_equations,
    integrate,
    normalize,
    perturbation_residual,
    solve_jacobi,
    substitute,
    total_derivative,
)
from conftest import (
    HAMILTONIAN_MODELS,
    LAGRANGIAN_MODELS,
    LINEAR_ODE_MODELS,
    ODE_CORPUS,
    corpus_model,
    first_order_atoms,
    model_path,
    rand_expr,
)

FD_FLOOR = 1e-9


def derive_operator(name):
    m = corpus_model(name)
    if m.kind == "lagrangian":
        return euler_lagrange(m.lagrangian())
    if m.kind == "hamiltonian":
        return hamilton_equations(m.hamiltonian())
    return derive_equations(m)


def jacobi_problem(name, dt=1e-3):
    init, jac, t1 = ODE_CORPUS[name]
    system = deviation_system(derive_operator(name))
    return JacobiProblem(system, init, jac, 0.0, t1, dt)


def test_criterion_1_lagrangian_commutation():
    assert len(LAGRANGIAN_MODELS) >= 10
    models = [corpus_model(name) for name in LAGRANGIAN_MODELS]
    assert any(len(m.spec.fibre_names) > 1 for m in models)
    assert any(len(m.spec.base_names) > 1 for m in models)
    start = time.perf_counter()
    for name, model in zip(LAGRANGIAN_MODELS, models):
        report = check_model(model)
        assert report.passed, f"commutation failed for {name}:\n{report}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 1: Lagrangian commutation PASS "
          f"({len(models)} models, {elapsed:.2f}s)")


def test_criterion_2_hamiltonian_commutation():
    assert len(HAMILTONIAN_MODELS) >= 4
    start = time.perf_counter()
    for name in HAMILTONIAN_MODELS:
        report = check_model(corpus_model(name))
        assert report.passed, f"commutation failed for {name}:\n{report}"
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(f"criterion 2: Hamiltonian commutation PASS "
          f"({len(HAMILTONIAN_MODELS)} models, {elapsed:.2f}s)")


def test_criterion_3_linearization_oracle():
    ladder = (1e-2, 1e-3, 1e-4)
    checked_pairs = 0
    for name in ODE_CORPUS:
        prob = jacobi_problem(name)
        _, jac = solve_jacobi(prob)
        errs = []
        for eps in ladder:
            fd = finite_difference_jacobi(prob, eps)
            errs.append(float(np.max(np.abs(fd.states - jac.states))))
        for (e_a, eps_a), (e_b, eps_b) in zip(
            zip(errs, ladder), zip(errs[1:], ladder[1:])
        ):
            if e_a <= FD_FLOOR or e_b <= FD_FLOOR:
                continue
            order = math.log(e_a / e_b) / math.log(eps_a / eps_b)
            assert 0.8 <= order <= 1.2, (
                f"{name}: eps {eps_a}->{eps_b} has order {order:.3f}"
            )
            checked_pairs += 1
    assert checked_pairs > 0
    print(f"criterion 3: linearization oracle PASS "
          f"({len(ODE_CORPUS)} models, {checked_pairs} first-order pairs)")


def test_criterion_4_residual_quadratic_law():
    exponents = {}
    for name in ("pendulum", "riccati"):
        table = perturbation_residual(jacobi_problem(name))
        assert table.exponent is not None
        assert 1.9 <= table.exponent <= 2.1, f"{name}: {table.exponent}"
        exponents[name] = table.exponent
    for name in LINEAR_ODE_MODELS:
        table = perturbation_residual(jacobi_problem(name))
        worst = max(r for _, r in table.entries)
        assert worst < 1e-8, f"{name}: residual {worst}"
    detail = ", ".join(f"{k}={v:.3f}" for k, v in exponents.items())
    print(f"criterion 4: quadratic residual law PASS ({detail}; "
          f"linear models at floor)")


def test_criterion_5_sphere_geodesic_deviation():
    start = time.perf_counter()
    model = corpus_model("sphere")
    ds = deviation_equations(model)
    spec = ds.spec
    on_equator = {
        spec.symbol("theta"): Rat(Fraction(math.pi / 2)),
        spec.symbol("theta_t"): 0,
        spec.symbol("theta_tt"): 0,
        spec.symbol("phi_t"): 1,
        spec.symbol("phi_tt"): 0,
    }
    reduced = substitute(ds.equations[2], on_equator)
    v = normalize(Sym(spec.symbol("v_theta_tt")) + Sym(spec.symbol("v_theta")))
    res = equivalent(reduced, -v)
    assert res.verdict == "equal", f"reduced equation is {reduced}"

    prob = jacobi_problem("sphere")
    _, jac = solve_jacobi(prob)
    err = float(np.max(np.abs(jac.column("v_theta") - np.sin(jac.times))))
    assert err < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 5: sphere geodesic deviation PASS "
          f"(v_theta error {err:.2e}, {elapsed:.2f}s)")


def test_criterion_6_null_lagrangians():
    spec = BundleSpec.make(["t"], ["y"], order=1)
    atoms = first_order_atoms(spec)
    wide = spec.with_order(2)
    zero = normalize(0)
    for trial in range(20):
        rng = random.Random(1000 + trial)
        f = rand_expr(rng, atoms, 3)
        df = total_derivative(f, 0, wide)
        op = euler_lagrange(Lagrangian(normalize(df), wide))
        for comp in op.equations:
            assert normalize(comp) == zero, f"trial {trial}: f = {f}"
    print("criterion 6: null Lagrangians PASS (20 random order-1 densities)")


def test_criterion_7_cli_determinism():
    commands = [
        ["check", str(model_path("pendulum")), "--seed", "7"],
        [
            "residual", str(model_path("riccati")),
            "--init", "y=-1", "--jacobi-init", "v_y=1",
            "--t1", "2.0", "--seed", "7",
        ],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            res = subprocess.run(
                [sys.executable, "-m", "deviq", *argv], capture_output=True
            )
            assert res.returncode == 0
            runs.append((res.stdout, res.stderr))
        assert runs[0] == runs[1], f"non-deterministic output for {argv[0]}"
    print("criterion 7: CLI determinism PASS (byte-identical reruns)")


def test_criterion_8_rk4_order():
    fos = jacobi_problem("oscillator").compiled
    z0 = (1.0, 0.0, 0.0, 1.0)

    def endpoint_error(dt):
        traj = integrate(fos, z0, 0.0, 2.0, dt)
        return abs(traj.states[-1, 0] - math.cos(2.0))

    factor = endpoint_error(0.02) / endpoint_error(0.01)
    assert 12.0 <= factor <= 20.0
    print(f"criterion 8: RK4 step-halving PASS (error factor {factor:.1f})")
