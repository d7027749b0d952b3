"""Compilation to first-order form, RK4, Jacobi fields, the residual."""

import math
import random
import re
import symtable
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import deviq.cli
from deviq import (
    CompileError,
    DeviqError,
    EquationSystem,
    FirstOrderSystem,
    IntegrationError,
    JacobiProblem,
    Rat,
    SingularEquationError,
    SpecError,
    Sym,
    Trajectory,
    UnboundSymbolError,
    compile_system,
    derive_equations,
    deviation_equations,
    deviation_system,
    euler_lagrange,
    evaluate,
    finite_difference_jacobi,
    hamilton_equations,
    integrate,
    load_model,
    numpy_eval,
    parse_model,
    perturbation_residual,
    ResidualTable,
    solve_jacobi,
)
from deviq.bundle import MultiIndex
from deviq.expr import Pow, SymbolKind, exp, free_symbols, ln, sin, substitute
from deviq import numeric
from deviq.numeric import MAX_STEPS, _emit
from conftest import ODE_CORPUS, corpus_model, first_order_atoms, model_path, rand_expr

CHAIN_MODELS = sorted((Path(__file__).resolve().parent / "golden" / "models").glob("*.eqn"))


def jacobi_problem(name, dt=1e-3):
    init, jac, t1 = ODE_CORPUS[name]
    system = deviation_system(derive_operator(name))
    return JacobiProblem(system, init, jac, 0.0, t1, dt)


def derive_operator(name):
    m = corpus_model(name)
    if m.kind == "lagrangian":
        return euler_lagrange(m.lagrangian())
    if m.kind == "hamiltonian":
        return hamilton_equations(m.hamiltonian())
    return derive_equations(m)


def test_compile_state_layout_sphere():
    m = corpus_model("sphere")
    ds = deviation_system(euler_lagrange(m.lagrangian()))
    fos = compile_system(ds)
    assert fos.state_names == (
        "theta", "theta_t", "phi", "phi_t",
        "v_theta", "v_theta_t", "v_phi", "v_phi_t",
    )
    assert fos.vertical_mask == (False,) * 4 + (True,) * 4


def test_compile_hamiltonian_layout():
    fos = compile_system(deviation_system(derive_operator("hkepler")))
    assert fos.state_names == ("r", "pt_r", "v_r", "vpt_r")


def test_compile_rejects_singular_top():
    m = parse_model("base t\nfibre y\nequation y_tt*0 + y\n")
    with pytest.raises((SingularEquationError, CompileError)):
        compile_system(deviation_system(derive_equations(m)))


def test_compile_rejects_vanishing_coefficient():
    # the y_tt coefficient is the symbol y itself: structurally nonzero,
    # so compilation succeeds and the blow-up happens at run time instead
    m = parse_model("base t\nfibre y\nequation y*y_tt - 1\n")
    fos = compile_system(deviation_system(derive_equations(m)))
    with pytest.raises(IntegrationError):
        integrate(fos, (0.0, 1.0, 0.0, 0.0), 0.0, 1.0, 1e-3)


def test_compile_rejects_unbound_params():
    m = parse_model("base t\nfibre y\nparam k\nequation y_t - k*y\n")
    with pytest.raises(CompileError):
        compile_system(deviation_system(derive_equations(m)))


def test_compile_rejects_multidimensional_base():
    m = corpus_model("laplace")
    with pytest.raises(CompileError):
        compile_system(deviation_system(euler_lagrange(m.lagrangian())))


def test_compile_rejects_coupled_tops():
    m = parse_model("base t\nfibre y u\nequation y_t + u_t\nequation y_t - u_t + y\n")
    with pytest.raises(CompileError):
        compile_system(deviation_system(derive_equations(m)))


@pytest.mark.parametrize("text,error,message", [
    ("fibre y\nequation y_t^2 + y", CompileError, "is not affine in 'y_t'"),
    ("fibre y u\nequation y_t + u_t\nequation y_t - u_t + y", CompileError,
     r"couples several top derivatives \(u_t, y_t\)"),
    ("fibre y\nequation y_t - y\nequation y_t + y", CompileError,
     "2 equations for 1 evolving fields"),
    ("fibre y\nequation y_ttttt + y", CompileError,
     "'y' has derivative order 5, above the supported maximum 4"),
    ("fibre y u\nequation y_t - u\nequation y + u", SingularEquationError,
     "no derivative of 'u' occurs"),
    ("fibre y u\nequation y_t - y\nequation u_t*(y_t - y) + y_t - y", CompileError,
     "equation '0' contains no unsolved top derivative"),
])
def test_compile_refusals(text, error, message):
    m = parse_model(f"base t\n{text}\n")
    with pytest.raises(error, match=message):
        compile_system(EquationSystem(m.payload, m.spec))


def _compile_one(equation):
    m = parse_model(f"base t\nfibre y\nequation {equation}\n")
    return compile_system(EquationSystem(m.payload, m.spec))


@pytest.mark.parametrize("equation,rhs", [
    # the top derivative also sits inside atoms that fold at y_t = 0
    ("sqrt(y_t)^2 - y", "y"),
    ("ln(exp(y_t)) - y", "y"),
    ("y_t + sin(y_t)^2 + cos(y_t)^2 - y", "-1 + y"),
])
def test_compile_solves_a_top_derivative_inside_atoms(equation, rhs):
    fos = _compile_one(equation)
    assert fos.state_names == ("y",)
    assert [str(r) for r in fos.rhs] == [rhs]


@pytest.mark.parametrize("equation,shown", [
    ("y_t - y_t^2", "y_t - y_t^2"),
    ("y_t*cos(y_t) - y", "-y + y_t*cos(y_t)"),
    ("sqrt(y_t) - y", "-y + sqrt(y_t)"),
])
def test_compile_refuses_an_equation_not_affine_in_its_top(equation, shown):
    with pytest.raises(CompileError) as info:
        _compile_one(equation)
    assert str(info.value) == (
        f"equation '{shown}' is not affine in 'y_t'; not in solvable normal form"
    )


def test_compile_refuses_a_zero_leading_coefficient():
    with pytest.raises(SingularEquationError) as info:
        _compile_one("sin(y_t)^2 + cos(y_t)^2 - y")
    assert str(info.value) == (
        "zero leading coefficient for 'y_t' in equation '-y + cos(y_t)^2 + sin(y_t)^2'"
    )


def test_integrate_exponential_accuracy():
    m = parse_model("base t\nfibre y\nequation y_t - y\n")
    fos = compile_system(deviation_system(derive_equations(m)))
    traj = integrate(fos, (1.0, 1.0), 0.0, 1.0, 1e-3)
    assert abs(traj.states[-1, 0] - math.e) < 1e-10


def test_rk4_halving_factor():
    m = corpus_model("oscillator")
    fos = compile_system(deviation_system(euler_lagrange(m.lagrangian())))
    z0 = (1.0, 0.0, 0.0, 1.0)

    def endpoint_error(dt):
        traj = integrate(fos, z0, 0.0, 2.0, dt)
        return abs(traj.states[-1, 0] - math.cos(2.0))

    factor = endpoint_error(0.02) / endpoint_error(0.01)
    assert 12.0 <= factor <= 20.0


def test_integrate_partial_final_step():
    m = parse_model("base t\nfibre y\nequation y_t - y\n")
    fos = compile_system(deviation_system(derive_equations(m)))
    traj = integrate(fos, (1.0, 0.0), 0.0, 1.0005, 1e-3)
    assert traj.times[-1] == pytest.approx(1.0005, abs=0)
    assert abs(traj.states[-1, 0] - math.exp(1.0005)) < 1e-10


def test_integrate_window_shorter_than_rounding_slack_ends_at_t1():
    m = parse_model("base t\nfibre y\nequation y_t - y\n")
    fos = compile_system(deviation_system(derive_equations(m)))
    traj = integrate(fos, (1.0, 0.0), 0.0, 1e-300, 1e-3)
    assert len(traj) == 2
    assert traj.times[-1] == 1e-300


def test_integrate_rejects_bad_windows():
    m = parse_model("base t\nfibre y\nequation y_t - y\n")
    fos = compile_system(deviation_system(derive_equations(m)))
    with pytest.raises(SpecError):
        integrate(fos, (1.0, 0.0), 0.0, 1.0, 0.0)
    with pytest.raises(SpecError):
        integrate(fos, (1.0, 0.0), 1.0, 1.0, 1e-3)
    with pytest.raises(SpecError):
        integrate(fos, (1.0,), 0.0, 1.0, 1e-3)


def test_integrate_reports_blowup_time():
    m = corpus_model("riccati")
    fos = compile_system(deviation_system(derive_equations(m)))
    with pytest.raises(IntegrationError) as err:
        integrate(fos, (1.0, 0.0), 0.0, 2.0, 1e-3)
    assert err.value.last_time is not None
    assert 0.9 < err.value.last_time <= 1.1


def reference_rk4(f, z0, t0, t1, dt):
    """The textbook RK4 loop over the compiled right-hand side `f(t, z)`,
    on integrate's grid: the rows the generated step must reproduce."""
    n_full = int((t1 - t0) / dt + 1e-9)
    while t0 + n_full * dt > t1 + 1e-9 * dt:
        n_full -= 1
    remainder = t1 - (t0 + n_full * dt)
    steps = n_full + (1 if remainder > 1e-9 * dt or n_full == 0 else 0)
    z = tuple(float(v) for v in z0)
    rows, t = [z], t0
    for i in range(steps):
        h = dt if i < n_full else remainder
        t_next = t0 + (i + 1) * dt if i < n_full else t1
        k1 = f(t, z)
        z2 = tuple(zi + 0.5 * h * k for zi, k in zip(z, k1))
        k2 = f(t + 0.5 * h, z2)
        z3 = tuple(zi + 0.5 * h * k for zi, k in zip(z, k2))
        k3 = f(t + 0.5 * h, z3)
        z4 = tuple(zi + h * k for zi, k in zip(z, k3))
        k4 = f(t_next, z4)
        z = tuple(
            zi + h * (a + 2.0 * b + 2.0 * c + d) / 6.0
            for zi, a, b, c, d in zip(z, k1, k2, k3, k4)
        )
        rows.append(z)
        t = t_next
    return rows


def assert_bit_identical(fos, z0, t0, t1, dt):
    rows = [tuple(r) for r in integrate(fos, z0, t0, t1, dt).states.tolist()]
    assert rows == reference_rk4(fos, z0, t0, t1, dt)


@pytest.mark.parametrize("name", list(ODE_CORPUS))
def test_rk4_step_bit_identical_on_corpus(name):
    prob = jacobi_problem(name)
    assert_bit_identical(prob.compiled, prob.initial_state(), prob.t0, prob.t1, prob.dt)


@pytest.mark.parametrize("chain", ["pendulum-L4", "fpu-L4"])
def test_rk4_step_bit_identical_on_chains(chain):
    path = next(p for p in CHAIN_MODELS if p.stem == chain)
    fos = compile_system(deviation_equations(load_model(path)))
    z0 = [0.3 * math.sin(i + 1) for i in range(fos.dimension)]
    assert_bit_identical(fos, z0, 0.0, 2.0, 1e-3)


def test_rk4_step_bit_identical_with_short_final_step():
    prob = jacobi_problem("pendulum")
    assert_bit_identical(prob.compiled, prob.initial_state(), 0.25, 1.2345, 1e-2)


DRIVEN = "base t\nfibre y\nequation y_tt + y - cos(t)*y\n"


def test_simulate_bit_identical_on_a_time_dependent_model(tmp_path, capsys):
    """No shipped model reads its base coordinate: this driven oscillator
    takes the loop that carries the stage times."""
    path = tmp_path / "driven.eqn"
    path.write_text(DRIVEN)
    code = deviq.cli.main(["simulate", str(path), "--init", "y=1,y_t=0", "--jacobi-init", "v_y=0,v_y_t=1",
                           "--t1", "2.005", "--dt", "0.01"])
    out = capsys.readouterr().out
    assert code == 0
    prob = JacobiProblem(deviation_equations(parse_model(DRIVEN)), {"y": 1.0, "y_t": 0.0},
                         {"v_y": 0.0, "v_y_t": 1.0}, 0.0, 2.005, 0.01)
    fos = prob.compiled
    assert fos.base in set().union(*map(free_symbols, fos.rhs))
    rows = reference_rk4(fos, prob.initial_state(), 0.0, 2.005, 0.01)
    assert len(rows) == 202
    times = [0.0] + [i * 0.01 for i in range(1, 201)] + [2.005]
    expect = ["t," + ",".join(fos.state_names)]
    expect += [",".join(f"{v:.17g}" for v in (t, *row)) for t, row in zip(times, rows)]
    assert out == "\n".join(expect) + "\n"


def _first_order(rhs):
    """y, u with y' = 1 and u' = rhs(t, y, u), as built, not normalized."""
    t, y, u = (Sym("t", SymbolKind.BASE), Sym("y", SymbolKind.FIBRE),
               Sym("u", SymbolKind.FIBRE))
    return FirstOrderSystem(t, (y, u), (Rat(Fraction(1)), rhs(t, y, u)))


def test_rk4_step_computes_a_repeated_subtree_once_per_stage():
    # two equal but distinct sin(y + t) nodes
    fos = _first_order(lambda t, y, u: sin(y + t) * u - sin(y + t))
    assert_bit_identical(fos, (0.5, -0.25), 0.0, 1.0, 1e-2)
    calls = []
    loop = fos._loop
    loop.__globals__["sin"] = lambda x: calls.append(x) or math.sin(x)
    rows = array("d", (0.5, -0.25))
    loop([0.0, 0.01, 0.02], [0.01, 0.01], rows, (0.5, -0.25))
    assert len(calls) == 8 and len(rows) == 3 * 2  # 4 per step, rows of 2 doubles


@pytest.mark.parametrize("rhs,error", [
    (lambda t, y, u: (y - 1) ** -1, "0.0 cannot be raised to a negative power"),
    (lambda t, y, u: ln(15 - 16 * y), "math domain error"),
    (lambda t, y, u: exp(800 * y), "math range error"),
], ids=["zero-division", "log-of-negative", "overflow"])
def test_rk4_step_failure_is_integration_error_with_last_valid_time(rhs, error):
    """With y = t, the last stage of the step from t = 0.75 divides by
    y - 1 = 0, takes the log of 15 - 16 y = -1 or overflows exp(800 y)."""
    with pytest.raises(IntegrationError, match=error) as err:
        integrate(_first_order(rhs), (0.0, 0.0), 0.0, 3.0, 0.25)
    assert err.value.last_time == 0.75
    assert "failed between t=0.75 and t=1" in str(err.value)


def test_rk4_step_returns_none_for_a_non_finite_state():
    """1e300 * u * u overflows to inf without an exception: the loop stops
    before appending that step, with 0 steps done and no error (None), and
    integrate reports its end."""
    fos = _first_order(lambda t, y, u: Rat(Fraction(10**300)) * u * u)
    rows = array("d", (0.0, 1.0))
    assert fos._loop([0.0, 0.25, 0.5], [0.25, 0.25], rows, (0.0, 1.0)) == (0, None)
    assert rows == array("d", (0.0, 1.0))
    with pytest.raises(IntegrationError, match=r"state became non-finite at t=0\.25 ") as err:
        integrate(fos, (0.0, 1.0), 0.0, 1.0, 0.25)
    assert err.value.last_time == 0.0


def test_emit_writes_integer_constants_as_float_literals():
    """A float literal is the double that float arithmetic converts the int
    to; an int beyond the float range keeps its text and still fails when
    the generated code runs."""
    y = Sym("y", SymbolKind.FIBRE)

    def text(e):
        return _emit(e, {"y": "y"}, text)

    assert text(Rat(Fraction(3))) == "(3.0)"
    assert text(Rat(Fraction(-12))) == "(-12.0)"
    assert text(Pow(y, Fraction(3))) == "(y)**(3.0)"
    assert text(Pow(y, Fraction(-2))) == "(y)**(-2.0)"
    assert text(Pow(y, Fraction(1, 3))) == "pow(y, 0.3333333333333333)"
    # an exponent over 2 goes through sqrt, as the model's sqrt(y)^k did
    assert text(Pow(y, Fraction(1, 2))) == "sqrt(y)"
    assert text(Pow(y, Fraction(-3, 2))) == "(sqrt(y))**(-3.0)"
    big = 10**400
    assert text(Rat(Fraction(big))) == f"({big})"
    with pytest.raises(IntegrationError, match="int too large to convert to float"):
        integrate(_first_order(lambda t, y, u: Rat(Fraction(big)) * u), (0.0, 1.0), 0.0, 1.0, 0.25)


def test_trajectory_csv_and_immutability():
    prob = jacobi_problem("oscillator")
    base, jac = solve_jacobi(prob)
    text = jac.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "t,v_y,v_y_t"
    # 17 significant digits round-trip
    row = lines[-1].split(",")
    assert float(row[1]) == jac.states[-1, 0]
    with pytest.raises(ValueError):
        jac.states[0, 0] = 99.0


@pytest.mark.parametrize("name", list(ODE_CORPUS))
def test_trajectory_csv_from_rows_matches_csv_from_arrays(name):
    prob = jacobi_problem(name)
    traj = integrate(prob.compiled, prob.initial_state(), prob.t0, prob.t1, prob.dt)
    text = traj.to_csv()  # from the integrator's rows, before any array exists
    assert len(traj) == round(prob.t1 / prob.dt) + 1
    expect = ["t," + ",".join(traj.names)]
    expect += [",".join(f"{v:.17g}" for v in (t, *row)) for t, row in zip(traj.times, traj.states)]
    assert text == "\n".join(expect) + "\n"
    assert traj.to_csv() == text  # and again from the arrays


def test_trajectory_arrays_are_read_only_and_cached():
    prob = jacobi_problem("twofield")
    traj = integrate(prob.compiled, prob.initial_state(), prob.t0, prob.t1, prob.dt)
    times, states = traj.times, traj.states
    assert traj.times is times and traj.states is states
    assert states.shape == (len(traj), prob.compiled.dimension) and times.shape == (len(traj),)
    for array in (times, states, traj.column("u_t")):
        with pytest.raises(ValueError):
            array[0] = 99.0
    assert traj.column("u_t").tolist() == [row[3] for row in states.tolist()]
    assert times[0] == 0.0 and times[-1] == prob.t1


def test_solve_jacobi_halves_split_the_joint_run():
    prob = jacobi_problem("sphere")
    joint = integrate(prob.compiled, prob.initial_state(), prob.t0, prob.t1, prob.dt)
    base, jac = solve_jacobi(prob)
    half = prob.compiled.dimension // 2
    assert base.names == joint.names[:half] == ("theta", "theta_t", "phi", "phi_t")
    assert jac.names == joint.names[half:]
    for part, cols in ((base, slice(None, half)), (jac, slice(half, None))):
        assert part.times.tolist() == joint.times.tolist()
        assert part.states.tolist() == joint.states[:, cols].tolist()
    assert (base.metadata["component"], jac.metadata["component"]) == ("base", "jacobi")


def test_solve_jacobi_halves_share_the_joint_run():
    """Both halves are windows on the joint run's rows and checked times."""
    base, jac = solve_jacobi(jacobi_problem("sphere"))
    assert base._rows is jac._rows and base._times is jac._times
    assert (base._first, jac._first, base._width) == (0, 4, 8)


@pytest.mark.parametrize("run,columns,bound", [
    (lambda prob: integrate(prob.compiled, prob.initial_state(), prob.t0, prob.t1, prob.dt), 8, 2.5),
    (solve_jacobi, 8, 2.5),
    (lambda prob: finite_difference_jacobi(prob, 1e-3), 4, 3.5),
], ids=["integrate", "solve_jacobi", "finite_difference_jacobi"])
def test_jacobi_runs_allocate_little_beyond_their_doubles(run, columns, bound):
    """On a 10^4-step sphere window, the peak that a run allocates, its
    result included, stays within `bound` times the 8 bytes per value of
    its rows; rows of tuples of floats took 5.4 and 7.9 times."""
    init, jac, _ = ODE_CORPUS["sphere"]
    prob = JacobiProblem(deviation_system(derive_operator("sphere")), init, jac, 0.0, 10.0, 1e-3)
    run(prob)  # the generated loops, made once per system
    tracemalloc.start()
    try:
        result = run(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result[0] if isinstance(result, tuple) else result) == 10001
    assert peak < bound * 8 * 10001 * columns, peak / (8 * 10001 * columns)


@pytest.mark.parametrize("array", [False, True], ids=["rows", "arrays"])
@pytest.mark.parametrize("times,rows,names,message", [
    ([0.0, 1.0], [(1.0,)], ("y",), "one state row per time"),
    ([], [], ("y",), "one state row per time"),
    ([0.0, 1.0, 1.0], [(1.0,), (2.0,), (3.0,)], ("y",), "strictly increasing"),
    ([0.0, 1.0], [(1.0, 2.0), (3.0, 4.0)], ("y",), "one name per state column"),
])
def test_trajectory_refuses_a_malformed_grid(array, times, rows, names, message):
    if array:
        times, rows = np.array(times), np.array(rows)
    with pytest.raises(SpecError, match=message):
        Trajectory(times, rows, names, {})


def test_jacobi_oscillator_closed_form():
    prob = jacobi_problem("oscillator")
    base, jac = solve_jacobi(prob)
    expect = np.sin(jac.times)
    assert float(np.max(np.abs(jac.column("v_y") - expect))) < 1e-8


def test_jacobi_riccati_closed_form():
    prob = jacobi_problem("riccati")
    base, jac = solve_jacobi(prob)
    expect = (1.0 + jac.times) ** -2
    assert float(np.max(np.abs(jac.column("v_y") - expect))) < 1e-10
    assert float(np.max(np.abs(base.column("y") + 1.0 / (1.0 + base.times)))) < 1e-10


def test_finite_difference_matches_linear_model_exactly():
    prob = jacobi_problem("oscillator")
    _, jac = solve_jacobi(prob)
    fd = finite_difference_jacobi(prob, 1e-3)
    assert float(np.max(np.abs(fd.states - jac.states))) < 1e-9


def test_finite_difference_first_order_in_eps():
    prob = jacobi_problem("pendulum")
    _, jac = solve_jacobi(prob)
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        fd = finite_difference_jacobi(prob, eps)
        errs.append(float(np.max(np.abs(fd.states - jac.states))))
    order1 = math.log10(errs[0] / errs[1])
    order2 = math.log10(errs[1] / errs[2])
    assert 0.8 <= order1 <= 1.2
    assert 0.8 <= order2 <= 1.2


def chain_problem(chain, t1=2.0, dt=1e-3):
    path = next(p for p in CHAIN_MODELS if p.stem == chain)
    system = deviation_equations(load_model(path))
    states = compile_system(system).states
    half = len(states) // 2
    base = {s.name: 0.3 * math.sin(i + 1) for i, s in enumerate(states[:half])}
    jac = {s.name: 0.2 * math.cos(i + 1) for i, s in enumerate(states[half:])}
    return JacobiProblem(system, base, jac, 0.0, t1, dt)


def fd_starts(prob, eps):
    """The plain and nudged initial states of the FD oracle's base flows."""
    base_sys = prob.compiled.base_part
    names = prob.compiled.state_names[prob.compiled.dimension // 2:]
    z0 = [prob.base_init[s.name] for s in base_sys.states]
    return z0, [a + eps * prob.jacobi_init[n] for a, n in zip(z0, names)]


def fd_by_integrate(prob, eps):
    """The FD oracle from two `integrate` runs of the base part, divided in
    Python: the rows the stacked loop must reproduce."""
    plain, moved = (integrate(prob.compiled.base_part, z, prob.t0, prob.t1, prob.dt) for z in fd_starts(prob, eps))
    rows = [[(b - a) / eps for a, b in zip(p, q)] for p, q in zip(plain.states.tolist(), moved.states.tolist())]
    return plain.times.tolist(), rows


@pytest.mark.parametrize("name", [*ODE_CORPUS, "pendulum-L4", "fpu-L4"])
def test_finite_difference_bit_identical_to_two_integrations(name):
    prob = chain_problem(name) if name in ("pendulum-L4", "fpu-L4") else jacobi_problem(name)
    for eps in (1e-3, 0.25):
        fd = finite_difference_jacobi(prob, eps)
        times, rows = fd_by_integrate(prob, eps)
        assert fd.times.tolist() == list(times)
        assert fd.states.tolist() == rows


FAILING_FLOWS = {
    # y' = y^2 from y0 raises an overflow in y^2 near t = 1/y0
    "math-error": ("fibre y\nequation y_t - y^2", {"y": 1.0}, "v_y"),
    # y' = 100*u*y, u' = 0 overflows y to inf silently near t = 7.1/u
    "non-finite": ("fibre y u\nequation y_t - 100*u*y\nequation u_t", {"y": 1.0, "u": 1.0}, "v_u"),
}


@pytest.mark.parametrize("kind", FAILING_FLOWS)
@pytest.mark.parametrize("v,lane", [(1.0, 1), (-1.0, 0)], ids=["nudged-first", "plain-first"])
def test_finite_difference_reports_the_earliest_failing_lane(kind, v, lane):
    """At eps = 0.5 the nudged flow starts at 1.5 or 0.5 times the plain
    one and fails first or last; the oracle reports the earlier failure,
    as `integrate` reports it for that flow alone."""
    text, base, partner = FAILING_FLOWS[kind]
    system = deviation_equations(parse_model(f"base t\n{text}\n"))
    prob = JacobiProblem(system, base, {partner: v}, 0.0, 20.0, 0.02)
    errors = []
    for z0 in fd_starts(prob, 0.5):
        with pytest.raises(IntegrationError) as err:
            integrate(prob.compiled.base_part, z0, prob.t0, prob.t1, prob.dt)
        errors.append(err.value)
    with pytest.raises(IntegrationError) as err:
        finite_difference_jacobi(prob, 0.5)
    assert err.value.last_time == errors[lane].last_time < errors[1 - lane].last_time
    assert str(err.value) == str(errors[lane])
    assert ("non-finite" in str(err.value)) == (kind == "non-finite")


def test_finite_difference_returns_read_only_arrays():
    fd = finite_difference_jacobi(jacobi_problem("pendulum"), 1e-3)
    for values in (fd.times, fd.states):
        assert isinstance(values, np.ndarray)
        with pytest.raises(ValueError):
            values[0] = 99.0
    assert fd.names == ("v_y", "v_y_t") and fd.states.shape == (len(fd), 2)


def test_residual_quadratic_in_eps_pendulum():
    prob = jacobi_problem("pendulum")
    table = perturbation_residual(prob)
    assert 1.9 <= table.exponent <= 2.1
    values = [r for _, r in table.entries]
    # halving epsilon quarters the residual
    assert 0.23 <= values[1] / values[0] <= 0.27
    assert 0.23 <= values[2] / values[1] <= 0.27
    assert table.metadata["norm"] == "max-over-grid-interior"


def test_residual_floor_for_linear_model():
    prob = jacobi_problem("oscillator")
    table = perturbation_residual(prob)
    assert max(r for _, r in table.entries) < 1e-8


def test_residual_csv():
    prob = jacobi_problem("riccati")
    table = perturbation_residual(prob, (1e-2, 1e-3))
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "eps,residual"
    assert len(lines) == 3


def test_residual_table_prints_one_line_per_eps():
    table = ResidualTable(((1e-2, 3.5e-5), (5e-3, 8.75e-6)), 2.0, {})
    assert str(table) == (
        "residual of the original equations on s + eps*psi (max over grid):\n"
        "  eps=0.01         residual=3.500000e-05\n"
        "  eps=0.005        residual=8.750000e-06\n"
        "  fitted exponent: 2.0000")
    no_fit = str(ResidualTable(((1e-2, 0.0),), None, {})).splitlines()
    assert no_fit[1:] == ["  eps=0.01         residual=0.000000e+00", "  fitted exponent: n/a"]


def numpy_residual(prob, eps_list):
    """The residual as whole-array numpy arithmetic on `solve_jacobi`'s
    flow, with np.gradient for the tops of psi and np.polyfit for the
    exponent: the reference the generated loop must reproduce."""
    base, jac = solve_jacobi(prob)
    times, fos, spec = base.times, prob.compiled, prob.system.spec
    half = fos.dimension // 2
    base_states = fos.states[:half]
    binding = {p: Rat(spec.param_value(p)) for p in spec.params}
    originals = [substitute(e, binding) for e in prob.system.equations[: len(prob.system.equations) // 2]]
    step = MultiIndex((0,))
    tails = [i for i, s in enumerate(base_states) if spec.jet(s, step) not in fos.states]
    tops = [spec.jet(base_states[i], step) for i in tails]
    t = fos.base.name
    env = {t: times, **{s.name: base.states[:, i] for i, s in enumerate(base_states)}}
    with np.errstate(all="ignore"):
        top_s = [numpy_eval(fos.rhs[i], env) + np.zeros_like(times) for i in tails]
        top_psi = [np.gradient(jac.states[:, i], times) for i in tails]
        entries = []
        for eps in eps_list:
            env = {t: times, **{s.name: base.states[:, i] + eps * jac.states[:, i] for i, s in enumerate(base_states)}}
            env.update({top.name: s + eps * p for top, s, p in zip(tops, top_s, top_psi)})
            values = [numpy_eval(e, env) + np.zeros_like(times) for e in originals]
            entries.append((eps, max(float(np.max(np.abs(v[1:-1]))) for v in values)))
    pts = [(e, r) for e, r in entries if e > 0 and r > 0]
    if len({e for e, _ in pts}) < 2:
        return entries, None
    return entries, float(np.polyfit(np.log([e for e, _ in pts]), np.log([r for _, r in pts]), 1)[0])


#: (name, t1, dt, ladder): the corpus on its own window with the default
#: ladder, and ladders of 1, 2 and 4 eps, with eps = 0 and a repeated eps,
#: on uneven gaps (t1 None) and on equal ones
RESIDUAL_REFERENCE_CASES = [(n, None, 1e-3, (1e-2, 5e-3, 2.5e-3)) for n in ODE_CORPUS] + [
    ("pendulum", 0.5, 0.125, (1e-2, 5e-3, 2.5e-3)),
    ("pendulum", None, 1e-3, (1e-2,)),
    ("hkepler", 1.0, 0.125, (0.0,)),
    ("sphere", None, 1e-3, (0.0, 1e-2)),
    ("hpend", 1.0, 0.125, (5e-3, 5e-3)),
    ("elastica", None, 1e-3, (1e-2, 0.0, 5e-3, 5e-3)),
    ("twofield", 1.0, 0.125, (1e-2, 5e-3, 5e-3, 0.0)),
]


def _reference_case_id(case):
    name, t1, dt, eps_list = case
    return f"{name}-{t1}-{dt}" + ("" if len(eps_list) == 3 else "-" + "-".join(map(str, eps_list)))


@pytest.mark.parametrize("name,t1,dt,eps_list", RESIDUAL_REFERENCE_CASES,
                         ids=list(map(_reference_case_id, RESIDUAL_REFERENCE_CASES)))
def test_residual_matches_numpy_reference(name, t1, dt, eps_list):
    init, jac, corpus_t1 = ODE_CORPUS[name]
    prob = JacobiProblem(deviation_equations(corpus_model(name)), init, jac, 0.0, t1 or corpus_t1, dt)
    if t1 is not None:  # every gap equal: np.gradient's uniform formula
        assert len(set(np.diff(solve_jacobi(prob)[0].times))) == 1
    table = perturbation_residual(prob, eps_list)
    entries, exponent = numpy_residual(prob, eps_list)
    assert [e for e, _ in table.entries] == list(eps_list)
    assert [r for _, r in table.entries] == pytest.approx([r for _, r in entries], rel=1e-9, abs=0)
    if exponent is None:
        assert table.exponent is None
    else:
        assert table.exponent == pytest.approx(exponent, rel=0, abs=1e-9)


def test_residual_reports_the_first_eps_whose_values_fail():
    """s stays in sqrt's domain; s + eps*psi leaves it only at the larger
    eps, which comes second in the ladder."""
    system = deviation_equations(parse_model("base t\nfibre y\nequation y_t - sqrt(y)\n"))
    prob = JacobiProblem(system, {"y": 1e-3}, {"v_y": -1.0}, 0.0, 0.1, 0.01)
    assert perturbation_residual(prob, (1e-4,)).entries[0][1] > 0
    with pytest.raises(IntegrationError, match=r"non-finite values at eps=0\.01 "):
        perturbation_residual(prob, (1e-4, 1e-2))


def test_residual_grid_too_fine_for_the_gradient_weights():
    """At dt = 1e-200 the weights' denominators underflow to 0: Python
    raises where numpy gave inf, and every eps fails as it did there."""
    init, jac, _ = ODE_CORPUS["oscillator"]
    prob = JacobiProblem(deviation_equations(corpus_model("oscillator")), init, jac, 0.0, 1e-199, 1e-200)
    with pytest.raises(IntegrationError, match=r"non-finite values at eps=0\.01 "):
        perturbation_residual(prob)


@pytest.mark.parametrize("equations,base,t1,dt", [
    ("y_t - y^2", {"y": 1.0}, 2.0, 1e-3),
    ("y_t - 1\nequation u_t - (y - 1)^(-1)", {"y": 0.0, "u": 0.0}, 3.0, 0.25),
    ("y_t - 1\nequation u_t - ln(15 - 16*y)", {"y": 0.0, "u": 0.0}, 3.0, 0.25),
    ("y_t - 1\nequation u_t - exp(800*y)", {"y": 0.0, "u": 0.0}, 3.0, 0.25),
    ("y_t - 1\nequation u_t - 10^300*u", {"y": 0.0, "u": 1.0}, 1.0, 0.25),
], ids=["blowup", "zero-division", "log-of-negative", "overflow", "non-finite-state"])
def test_residual_fails_as_the_joint_flow_does(equations, base, t1, dt):
    """The blow-ups of the integrate tests as Jacobi problems: the residual
    stops where the joint flow does, with the same message and last time."""
    fibres = " ".join(base)
    system = deviation_equations(parse_model(f"base t\nfibre {fibres}\nequation {equations}\n"))
    prob = JacobiProblem(system, base, {}, 0.0, t1, dt)
    with pytest.raises(IntegrationError) as flow:
        solve_jacobi(prob)
    with pytest.raises(IntegrationError) as residual:
        perturbation_residual(prob)
    assert str(residual.value) == str(flow.value)
    assert residual.value.last_time == flow.value.last_time


def test_residual_generates_one_loop_per_ladder_length(monkeypatch):
    """The residual steps the flow itself, so a fresh problem gets one
    generated function for each ladder length it is asked for."""
    defined = []
    real = numeric._define
    monkeypatch.setattr(numeric, "_define", lambda source, env: defined.append(source) or real(source, env))
    prob = jacobi_problem("pendulum", dt=0.05)
    counts = []
    for ladder in ((1e-2,), (2e-2,), (1e-2, 5e-3)):
        perturbation_residual(prob, ladder)
        counts.append(len(defined))
    assert counts == [1, 1, 2]


def test_residual_exponent_needs_two_distinct_eps():
    prob = jacobi_problem("pendulum")
    table = perturbation_residual(prob, (1e-2, 1e-2))
    assert table.entries[0] == table.entries[1]
    assert table.exponent is None


def test_jacobi_problem_validates_initial_data():
    init, jac, t1 = ODE_CORPUS["oscillator"]
    system = deviation_system(derive_operator("oscillator"))
    with pytest.raises(SpecError):
        JacobiProblem(system, {"y": 1.0}, jac, 0.0, t1)
    with pytest.raises(SpecError):
        JacobiProblem(system, init, {"v_y": 0.0, "bogus": 1.0}, 0.0, t1)
    with pytest.raises(SpecError):
        JacobiProblem(system, init, jac, 2.0, 1.0)


def test_jacobi_problem_unset_jacobi_entries_start_at_zero():
    init, _, t1 = ODE_CORPUS["oscillator"]
    system = deviation_system(derive_operator("oscillator"))
    prob = JacobiProblem(system, init, {"v_y_t": 1.0}, 0.0, t1)
    assert prob.jacobi_init == {"v_y": 0.0, "v_y_t": 1.0}
    assert prob.initial_state()[-2:] == (0.0, 1.0)


@pytest.mark.parametrize("window", [
    dict(t0=math.nan), dict(t1=math.inf), dict(dt=math.nan), dict(dt=math.inf),
])
def test_jacobi_problem_rejects_non_finite_window(window):
    init, jac, _ = ODE_CORPUS["oscillator"]
    system = deviation_system(derive_operator("oscillator"))
    args = dict(t0=0.0, t1=1.0, dt=1e-2) | window
    with pytest.raises(SpecError, match="must be a finite number"):
        JacobiProblem(system, init, jac, **args)


@pytest.mark.parametrize("data", [
    dict(base={"y": math.nan}), dict(base={"y_t": math.inf}), dict(jacobi={"v_y": -math.inf}),
])
def test_jacobi_problem_rejects_non_finite_initial_data(data):
    init, jac, _ = ODE_CORPUS["oscillator"]
    system = deviation_system(derive_operator("oscillator"))
    with pytest.raises(SpecError, match="is not a finite number"):
        JacobiProblem(system, init | data.get("base", {}), jac | data.get("jacobi", {}), 0.0, 1.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_oracles_reject_non_finite_eps(eps):
    prob = jacobi_problem("oscillator")
    with pytest.raises(SpecError, match="finite"):
        finite_difference_jacobi(prob, eps)
    with pytest.raises(SpecError, match="finite"):
        perturbation_residual(prob, (1e-2, eps))


@pytest.mark.parametrize("t0,t1,dt", [(0.0, 1e12, 1e-3), (0.0, 10.0, 1e-5), (-1e308, 1e308, 1.0)])
def test_integrate_refuses_window_past_step_cap(t0, t1, dt):
    calls = []
    fos = compile_system(deviation_system(derive_operator("oscillator")))
    fos.__dict__["_loop"] = lambda *args: calls.append(args)  # the cached RK4 loop
    with pytest.raises(SpecError, match=f"more than {MAX_STEPS} steps"):
        integrate(fos, (1.0, 0.0, 0.0, 1.0), t0, t1, dt)
    assert calls == []


@pytest.mark.parametrize("t0,t1", [(1e17, 1.0000000000000002e17), (-1.0000000000000002e17, -1e17)])
def test_integrate_refuses_a_grid_that_does_not_increase(t0, t1):
    # the floats near 1e17 are 16 apart, so t0 + 4 rounds back to t0
    calls = []
    fos = compile_system(deviation_system(derive_operator("oscillator")))
    fos.__dict__["_loop"] = lambda *args: calls.append(args)  # the cached RK4 loop
    with pytest.raises(SpecError, match=re.escape(f"from t0={t0} in steps of dt=4.0 does not strictly increase")):
        integrate(fos, (1.0, 0.0, 0.0, 1.0), t0, t1, 4.0)
    assert calls == []


def test_first_order_system_needs_a_state():
    with pytest.raises(CompileError, match="at least one state"):
        FirstOrderSystem(Sym("t", SymbolKind.BASE), (), ())


@pytest.mark.parametrize("z0,t0,t1,dt,message", [
    ((math.nan, 0.0, 0.0, 1.0), 0.0, 1.0, 0.1, "initial state y=nan is not a finite number"),
    ((1.0, 0.0, 0.0, math.inf), 0.0, 1.0, 0.1, "initial state v_y_t=inf is not a finite number"),
    ((1.0, 0.0, 0.0, 1.0), -math.inf, 1.0, 0.1, "t0 must be a finite number, got -inf"),
    ((1.0, 0.0, 0.0, 1.0), 0.0, math.nan, 0.1, "t1 must be a finite number, got nan"),
    ((1.0, 0.0, 0.0, 1.0), 0.0, 1.0, math.nan, "dt must be a finite number, got nan"),
])
def test_integrate_refuses_non_finite_input(z0, t0, t1, dt, message):
    calls = []
    fos = compile_system(deviation_system(derive_operator("oscillator")))
    fos.__dict__["_loop"] = lambda *args: calls.append(args)  # the cached RK4 loop
    with pytest.raises(SpecError, match=message):
        integrate(fos, z0, t0, t1, dt)
    assert calls == []


@pytest.mark.parametrize("t1", [1e-300, 1e-3])
def test_residual_refuses_grid_without_interior(t1):
    init, jac, _ = ODE_CORPUS["oscillator"]
    prob = JacobiProblem(deviation_system(derive_operator("oscillator")), init, jac, 0.0, t1)
    with pytest.raises(SpecError, match="grid too short"):
        perturbation_residual(prob)


def test_jacobi_problem_requires_deviation_pair():
    m = corpus_model("riccati")
    plain = EquationSystem(derive_equations(m).equations, m.spec, "plain")
    with pytest.raises(SpecError):
        JacobiProblem(plain, {"y": -1.0}, {}, 0.0, 1.0)


@pytest.mark.parametrize(
    "path", [model_path(n) for n in ODE_CORPUS] + CHAIN_MODELS, ids=lambda p: p.stem
)
def test_compiled_deviation_pair_has_mirror_layout(path):
    """Both oracles read the Jacobi partner of state i at state half + i."""
    system = deviation_equations(load_model(path))
    fos = compile_system(system)
    half = fos.dimension // 2
    assert fos.vertical_mask == (False,) * half + (True,) * half
    for i in range(half):
        assert system.spec.vertical_partner(fos.states[i]) == fos.states[half + i]


def _agrees_with_evaluate(e, env, n):
    """numpy_eval on arrays of n points against evaluate at each point;
    returns how many points evaluate could take."""
    with np.errstate(all="ignore"):
        got = np.broadcast_to(numpy_eval(e, env), (n,))
    compared = 0
    for k in range(n):
        try:
            want = evaluate(e, {name: float(v[k]) for name, v in env.items()})
        except DeviqError:
            continue
        assert got[k] == pytest.approx(want, rel=1e-12, abs=0), (str(e), k)
        compared += 1
    return compared


def test_numpy_eval_matches_evaluate_on_random_expressions(mechanics_spec):
    rng = random.Random(8)
    np_rng = np.random.default_rng(8)
    atoms = first_order_atoms(mechanics_spec)
    names = sorted({a.name for a in atoms})
    compared = 0
    for _ in range(60):
        e = rand_expr(rng, atoms, 4)
        env = {name: np_rng.uniform(-1.5, 1.5, 16) for name in names}
        compared += _agrees_with_evaluate(e, env, 16)
    assert compared >= 500


@pytest.mark.parametrize("name", list(ODE_CORPUS))
def test_numpy_eval_matches_evaluate_on_corpus_rhs(name):
    fos = compile_system(deviation_equations(corpus_model(name)))
    np_rng = np.random.default_rng(8)
    env = {s: np_rng.uniform(0.1, 1.5, 8) for s in (fos.base.name, *fos.state_names)}
    assert sum(_agrees_with_evaluate(r, env, 8) for r in fos.rhs) > 0


def test_numpy_eval_names_a_missing_symbol(mechanics_spec):
    y, t = (mechanics_spec.symbol(n) for n in ("y", "t"))
    with pytest.raises(UnboundSymbolError, match="y"):
        numpy_eval(y * t, {"t": np.ones(3)})


def test_numpy_eval_keeps_numpy_semantics_on_scalars(mechanics_spec):
    y = mechanics_spec.symbol("y")
    with np.errstate(divide="ignore"):
        assert numpy_eval(y ** -1, {"y": 0.0}) == math.inf
        assert numpy_eval(y ** -2 + 1, {"y": 0.0}) == math.inf


def _globals_named(table) -> set:
    """The global names a symbol table and its nested scopes read."""
    names = {s.get_name() for s in table.get_symbols() if s.is_global()}
    for child in table.get_children():
        names |= _globals_named(child)
    return names


def test_generated_code_names_only_its_environment(monkeypatch):
    """Every source handed to `_define` while integrating, running the FD
    oracle and taking the residual on the corpus reads no global outside
    the environment it runs in, and that environment has no builtins."""
    defined = []
    real = numeric._define
    monkeypatch.setattr(numeric, "_define", lambda source, env: defined.append((source, env)) or real(source, env))
    for name in ODE_CORPUS:
        prob = jacobi_problem(name, dt=0.05)
        solve_jacobi(prob)
        finite_difference_jacobi(prob, 1e-3)
        perturbation_residual(prob)
    assert len(defined) == 3 * len(ODE_CORPUS)
    for source, env in defined:
        assert env["__builtins__"] == {}
        (function,) = symtable.symtable(source, "<generated>", "exec").get_children()
        assert _globals_named(function) <= set(env), source
    assert set(numeric._SWEEP_ENV) == {
        "sin", "cos", "tan", "exp", "log", "sqrt", "pow", "abs", "len", "zip", "enumerate", "Struct", "nan",
        "MathError", "__builtins__"
    }
