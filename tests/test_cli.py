"""Command line driver tests.

Every test shells out to ``python -m deviq`` so that exit codes,
stream separation, and byte-level determinism are observed exactly as
a user would see them; the console-script test also runs the declared
``deviq`` entry point through an installer-style launcher.  The
exceptions run ``deviq.cli.main`` in process with a stub or a tampered
derivation: the exit-code-1 mapping (no well-formed model can make the
commutation theorem fail), the exit code of every error class, and tests
that watch or forbid ``compile_system`` calls.
"""

import inspect
import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

import deviq.cli
import deviq.errors
import deviq.hamiltonian
import deviq.numeric
import deviq.variational
from deviq import HamiltonianSystem, Lagrangian
from conftest import MODELS_DIR, model_path


def run_cli(*argv, binary=False):
    return subprocess.run(
        [sys.executable, "-m", "deviq", *[str(a) for a in argv]],
        capture_output=True,
        text=not binary,
    )


def test_check_lagrangian_exits_zero():
    res = run_cli("check", model_path("pendulum"))
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "δ(VL) = V(δL): PASS (2 pairs)"
    assert res.stderr == ""


def test_check_hamiltonian_exits_zero():
    res = run_cli("check", model_path("hosc"))
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "Hamilton(VH) = V(Hamilton): PASS (4 pairs)"


def test_check_equation_model_is_usage_error():
    res = run_cli("check", model_path("riccati"))
    assert res.returncode == 2
    assert res.stdout == ""
    assert "no theorem to check" in res.stderr


def test_missing_file_is_usage_error():
    res = run_cli("check", MODELS_DIR / "nosuch.eqn")
    assert res.returncode == 2
    assert res.stderr.startswith("deviq: error:")


def test_malformed_model_is_usage_error(tmp_path):
    bad = tmp_path / "bad.eqn"
    bad.write_text("fibre y\nbase t\nlagrangian y_t^2\n")
    res = run_cli("check", bad)
    assert res.returncode == 2
    assert "base" in res.stderr


def test_order_override_below_minimum_is_usage_error():
    res = run_cli("deviate", model_path("elastica"), "--order", "1")
    assert res.returncode == 2
    assert "below the inferred minimum" in res.stderr


def test_derive_text():
    res = run_cli("derive", model_path("oscillator"))
    assert res.returncode == 0
    assert res.stdout == "-omega^2*y - y_tt = 0\n"


def test_derive_json_envelope():
    res = run_cli("derive", model_path("riccati"), "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert set(doc) == {"equations", "spec", "structure"}
    assert doc["structure"] == "plain"
    assert doc["equations"] == [["+", ["*", -1, ["^", "y", 2]], "y_t"]]
    assert doc["spec"]["base"] == ["t"]
    assert doc["spec"]["vertical"] is False


def test_deviate_latex():
    res = run_cli("deviate", model_path("riccati"), "--format", "latex")
    assert res.returncode == 0
    assert res.stdout.splitlines() == [
        r"-y^{2} + \dot{y} = 0",
        r"-2 \, \dot{y} \, y + \dot{\dot{y}} = 0",
    ]


def test_simulate_csv_schema():
    res = run_cli(
        "simulate", model_path("sphere"),
        "--init", "theta=1.5707963267948966,theta_t=0,phi=0,phi_t=1",
        "--jacobi-init", "v_theta_t=1",
        "--t1", "1.0", "--dt", "0.01",
    )
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "t,theta,theta_t,phi,phi_t,v_theta,v_theta_t,v_phi,v_phi_t"
    assert len(lines) == 102
    assert lines[1].split(",")[0] == "0"
    assert lines[-1].split(",")[0] == "1"


def test_simulate_out_file(tmp_path):
    out = tmp_path / "traj.csv"
    res = run_cli(
        "simulate", model_path("oscillator"),
        "--init", "y=1,y_t=0", "--jacobi-init", "v_y=1",
        "--t1", "1.0", "--dt", "0.1", "--out", out,
    )
    assert res.returncode == 0
    assert res.stdout == ""
    text = out.read_text()
    assert text.startswith("t,y,y_t,v_y,v_y_t\n")
    assert text.endswith("\n")


def test_underdetermined_model_is_numeric_error(tmp_path):
    src = tmp_path / "sing.eqn"
    src.write_text("base t\nfibre y\nequation 0*y_tt + y\n")
    res = run_cli("simulate", src, "--init", "y=1", "--t1", "0.5")
    assert res.returncode == 3
    assert res.stderr.startswith("deviq: numeric failure:")


def test_blowup_is_numeric_error():
    res = run_cli(
        "simulate", model_path("riccati"),
        "--init", "y=1", "--jacobi-init", "v_y=1", "--t1", "2.0",
    )
    assert res.returncode == 3
    assert "last valid time" in res.stderr


def test_bad_assignment_is_usage_error():
    res = run_cli(
        "simulate", model_path("oscillator"),
        "--init", "y=1,y_t=bad", "--t1", "1.0",
    )
    assert res.returncode == 2
    assert "--init" in res.stderr


def test_residual_csv_and_summary():
    res = run_cli(
        "residual", model_path("pendulum"),
        "--init", "y=2,y_t=0", "--jacobi-init", "v_y=1",
        "--t1", "2.0", "--dt", "0.01",
    )
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "eps,residual"
    assert len(lines) == 4
    assert res.stderr.startswith("fitted exponent: ")
    assert "(norm: max-over-grid-interior)" in res.stderr


def test_residual_custom_ladder():
    res = run_cli(
        "residual", model_path("oscillator"),
        "--init", "y=1,y_t=0", "--jacobi-init", "v_y=1",
        "--t1", "1.0", "--dt", "0.01", "--eps", "1e-2,1e-3",
    )
    assert res.returncode == 0
    rows = res.stdout.splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("0.01,")
    assert rows[2].startswith("0.001,")


@pytest.mark.parametrize("equation,init", [
    ("y_t - 1e300*y*y", "y=1e10"),
    ("y_t + y", "y=1"),
], ids=["blows-up", "decays"])
def test_residual_refuses_a_two_point_grid_before_stepping(tmp_path, equation, init):
    """A grid of two points has no interior point to take the residual at:
    it is refused before the flow is stepped, so a flow that would blow up
    on its one step is refused as one that would not."""
    src = tmp_path / "short.eqn"
    src.write_text(f"base t\nfibre y\nequation {equation}\n")
    res = run_cli("residual", src, "--init", init, "--t1", "0.001", "--dt", "0.001")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "deviq: error: grid too short for an interior residual\n"


@pytest.mark.parametrize("command", ["simulate", "residual"])
def test_largest_expansion_simulates(tmp_path, command):
    """(y + 1)^499, the largest power of a sum a model may expand, gives a
    right-hand side of degree 498: its generated code must still compile."""
    src = tmp_path / "power.eqn"
    src.write_text("base t\nfibre y\nlagrangian 0.5*y_t^2 + (y+1)^499\n")
    res = run_cli(command, src, "--init", "y=0,y_t=0", "--t1", "0.003", "--dt", "0.001")
    assert res.returncode == 0, res.stderr
    assert "Error" not in res.stderr


def test_residual_leaving_the_domain_is_numeric_error(tmp_path):
    """y stays positive along the run; y + eps*v_y does not, and sqrt fails."""
    src = tmp_path / "root.eqn"
    src.write_text("base t\nfibre y\nequation y_t - sqrt(y)\n")
    res = run_cli("residual", src, "--init", "y=0.001", "--jacobi-init", "v_y=-1", "--t1", "0.1", "--dt", "0.01")
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr == (
        "deviq: numeric failure: residual evaluation produced non-finite values at eps=0.01 "
        "(last valid time t=0.1)\n"
    )


def test_seeded_runs_are_byte_identical(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = run_cli(
            "residual", model_path("pendulum"),
            "--init", "y=2,y_t=0", "--jacobi-init", "v_y=1",
            "--t1", "2.0", "--dt", "0.01", "--seed", "11", "--out", out,
            binary=True,
        )
        assert res.returncode == 0
        outs.append((res.stdout, res.stderr, out.read_bytes()))
    assert outs[0] == outs[1]


def test_failing_report_maps_to_exit_one(monkeypatch, capsys):
    class StubReport:
        passed = False

        def __str__(self):
            return "δ(VL) = V(δL): FAIL (2 pairs)"

    monkeypatch.setattr(deviq.cli, "check_model", lambda model, seed=0: StubReport())
    code = deviq.cli.main(["check", str(model_path("pendulum"))])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


ERROR_CLASSES = sorted(
    (c for c in vars(deviq.errors).values()
     if isinstance(c, type) and issubclass(c, deviq.errors.DeviqError)),
    key=lambda c: c.__name__,
)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=[c.__name__ for c in ERROR_CLASSES])
def test_every_error_class_exits_with_one_line(monkeypatch, capsys, cls):
    """The numeric family exits 3 and every other deviq error 2, each with
    one line on stderr, never a traceback."""
    # a class with its own constructor gets a string per required argument,
    # one that keeps Exception's a message
    init = cls.__init__
    required = [] if not inspect.isfunction(init) else [
        p for p in list(inspect.signature(init).parameters.values())[1:]
        if p.default is p.empty
    ]
    error = cls(*[f"arg{i}" for i in range(len(required))] or ["boom"])

    def fail(args):
        raise error

    monkeypatch.setattr(deviq.cli, "run", fail)
    code = deviq.cli.main(["derive", str(model_path("pendulum"))])
    numeric = (deviq.errors.CompileError, deviq.errors.EvalError, deviq.errors.IntegrationError)
    status, label = (3, "numeric failure") if issubclass(cls, numeric) else (2, "error")
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (status, "", f"deviq: {label}: {error}\n")


def _tampered(extend, make, extra):
    """`extend` with `extra(y, v_y)` added to the density it gives."""
    def tampered(system):
        ext = extend(system)
        y, v = (ext.spec.symbol(name) for name in ("y", "v_y"))
        return make(ext.density + extra(y, v), ext.spec)
    return tampered


@pytest.mark.parametrize("module,name,make,extra,model,failing", [
    (deviq.variational, "vertical_extension_density", Lagrangian,
     lambda y, v: v * y + v * y**3, "pendulum",
     {"v_y-variation of VL vs component 1 of the original operator": 2,
      "y-variation of VL vs vertical derivative of component 1": 2}),
    (deviq.hamiltonian, "vertical_hamiltonian", HamiltonianSystem,
     lambda y, v: v * v * y, "hpend",
     {"momentum equation of y vs linearized momentum equation": 1,
      "momentum equation of v_y vs original momentum equation": 1}),
])
def test_tampered_vertical_density_fails_check(monkeypatch, capsys, module, name, make, extra,
                                                model, failing):
    monkeypatch.setattr(module, name, _tampered(getattr(module, name), make, extra))
    report = deviq.check_model(deviq.load_model(model_path(model)))
    assert not report.passed
    assert str(report).splitlines()[0].endswith(f": FAIL ({len(report.entries)} pairs)")
    got = {e.label: e.result.reason for e in report.entries if not e.result}
    assert got == {label: f"normal forms differ by {n} terms" for label, n in failing.items()}
    for label in failing:
        assert f"  [different] {label}\n" in str(report)
    assert deviq.cli.main(["check", str(model_path(model))]) == 1
    assert capsys.readouterr().out == str(report) + "\n"


def test_long_products_and_quotients_are_flattened(tmp_path):
    """A product or quotient of 1500 factors, which the parser makes one
    node, derives and checks without a recursion error."""
    src = tmp_path / "long.eqn"
    for op, derivative in (("*", "-1500*y^1499"), ("/", "1498/y^1499")):
        src.write_text("base t\nfibre y\nlagrangian 0.5*y_t^2 - " + op.join(["y"] * 1500) + "\n")
        res = run_cli("derive", src)
        assert (res.returncode, res.stdout, res.stderr) == (0, f"{derivative} - y_tt = 0\n", "")
        res = run_cli("check", src)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("δ(VL) = V(δL): PASS (2 pairs)\n")


def test_powers_and_functions_of_long_sums_are_made_without_recursion(tmp_path):
    """A power or a function of a sum of 1500 terms, which the parser
    makes one node, derives and checks without a recursion error."""
    src = tmp_path / "long.eqn"
    total = " + ".join(["y"] * 1500)
    for atom, equation in (
        ("({})^2", "-4500000*y - y_tt = 0"),
        ("({})^(-1)", "1/(1500*y^2) - y_tt = 0"),
        ("sin({})", "-y_tt - 1500*cos(1500*y) = 0"),
    ):
        src.write_text(f"base t\nfibre y\nlagrangian 0.5*y_t^2 - {atom.format(total)}\n")
        res = run_cli("derive", src)
        assert (res.returncode, res.stdout, res.stderr) == (0, equation + "\n", ""), atom
        res = run_cli("check", src)
        assert (res.returncode, res.stderr) == (0, ""), atom
        assert res.stdout.startswith("δ(VL) = V(δL): PASS (2 pairs)\n"), atom


LONG_SUM = " + ".join(["y"] * 200)


@pytest.mark.parametrize("payload,code,message", [
    ("ln(" + " + ".join(["0*y"] * 200) + ")", 3,
     "deviq: numeric failure: logarithm of zero in subexpression 'ln({})'"),
    (f"({LONG_SUM} + 1)^600", 2, "deviq: error: '({} + 1)^600' would expand to more than 500 terms"),
    (f"1/(({LONG_SUM}) - ({LONG_SUM}))", 3,
     "deviq: numeric failure: zero raised to a negative power in subexpression '1/(({}) - ({}))'"),
], ids=["ln", "power", "quotient"])
def test_a_refused_long_chain_is_named_as_written(tmp_path, capsys, payload, code, message):
    """Every command refuses a model whose fault lies over a chain of 200
    terms in one line that names the subexpression as written: a chain
    is one node, so no walk over it passes the recursion limit and no
    parentheses are added."""
    src = tmp_path / "long.eqn"
    src.write_text(f"base t\nfibre y\nlagrangian y_t^2/2 + {payload}\n")
    chain = " + ".join(["0*y"] * 200) if payload.startswith("ln") else LONG_SUM
    for command in ("derive", "deviate", "check"):
        assert deviq.cli.main([command, str(src)]) == code
        assert capsys.readouterr() == ("", message.replace("{}", chain) + "\n")


def write_console_script(bin_dir, name, target):
    """Write the launcher an installer writes for ``name = target``.

    ``target`` is a ``[project.scripts]`` value, ``module:func``; the
    launcher has the same shebang, import and exit lines as pip's.
    """
    module, _, func = target.partition(":")
    launcher = bin_dir / name
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n"
    )
    launcher.chmod(0o755)


def test_console_script_available(tmp_path):
    # The entry point declared in pyproject.toml, launched the way an
    # install would launch it, without needing the package installed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((MODELS_DIR.parent / "pyproject.toml").read_text())
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    write_console_script(bin_dir, "deviq", pyproject["project"]["scripts"]["deviq"])
    env = dict(os.environ, PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))

    exe = shutil.which("deviq", path=env["PATH"])
    assert exe is not None
    res = subprocess.run(
        [exe, "check", str(model_path("oscillator"))],
        capture_output=True, env=env,
    )
    assert res.returncode == 0
    assert res.stdout == run_cli("check", model_path("oscillator"), binary=True).stdout


def test_unknown_subcommand_is_usage_error():
    res = run_cli("frobnicate", model_path("oscillator"))
    assert res.returncode == 2


@pytest.mark.parametrize("command", ["check", "simulate", "residual"])
def test_format_is_refused_where_it_is_not_used(command):
    # only derive and deviate render equations; the others print text or CSV
    res = run_cli(command, model_path("oscillator"), "--format", "json")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "unrecognized arguments: --format json" in res.stderr


def test_non_utf8_model_is_usage_error(tmp_path):
    bad = tmp_path / "latin1.eqn"
    bad.write_bytes("base t\nfibre y\n# \xe9\nlagrangian y_t^2\n".encode("latin-1"))
    res = run_cli("derive", bad)
    assert res.returncode == 2
    assert res.stderr.startswith("deviq: error:")
    assert "not UTF-8" in res.stderr
    assert len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("flag,value", [("--dt", "nan"), ("--t1", "inf"), ("--t0", "nan")])
def test_non_finite_window_is_usage_error(flag, value):
    res = run_cli(
        "simulate", model_path("oscillator"), "--init", "y=1,y_t=0", flag, value,
    )
    assert res.returncode == 2
    assert res.stderr == f"deviq: error: {flag[2:]} must be a finite number, got {value}\n"


@pytest.mark.parametrize("payload,message", [
    ("2^100000000*y", "'2^100000000' would build a constant longer than 1000 digits"),
    ("(y+1)^3000", "'(y + 1)^3000' would expand to more than 500 terms"),
    ("1e10000000*y", "line 3, column 24: number longer than 1000 digits"),
    ("1e600*1e600*y", "a normal form would hold a constant longer than 1000 digits"),
])
def test_oversized_expansion_is_usage_error(tmp_path, payload, message):
    src = tmp_path / "big.eqn"
    src.write_text(f"base t\nfibre y\nlagrangian 0.5*y_t^2 + {payload}\n")
    res = run_cli("derive", src)
    assert res.returncode == 2
    assert res.stderr == f"deviq: error: {message}\n"


def test_window_past_step_cap_is_usage_error():
    res = run_cli("simulate", model_path("oscillator"), "--init", "y=1,y_t=0", "--t1", "1e12")
    assert res.returncode == 2
    assert res.stderr == (
        "deviq: error: the window from t0=0.0 to t1=1000000000000.0 at dt=0.001 "
        "takes more than 100000 steps\n"
    )


def test_window_past_step_cap_is_refused_before_compiling(monkeypatch, capsys):
    def refuse(system):
        raise AssertionError("compiled a system for a window that is refused")

    monkeypatch.setattr(deviq.numeric, "compile_system", refuse)
    argv = ["simulate", str(model_path("oscillator")), "--init", "y=1,y_t=0", "--t1", "1e12"]
    assert deviq.cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "deviq: error: the window from t0=0.0 to t1=1000000000000.0 at dt=0.001 "
        "takes more than 100000 steps\n"
    )


@pytest.mark.parametrize("model,order,message", [
    ("wave", "400", "jet order 400 over 2 base coordinate(s) gives 80601 multi-indices"),
    ("wave", "800", "jet order 800 over 2 base coordinate(s) gives 321201 multi-indices"),
    ("oscillator", "8000", "jet order 8000 over 1 base coordinate(s) gives 8001 multi-indices"),
    ("0.5*y_t^2 + y*y_" + "t" * 300, None, "jet order 600 over 1 base coordinate(s) gives 601 multi-indices"),
])
def test_jet_order_past_cap_is_usage_error(tmp_path, model, order, message):
    if order is None:
        src = tmp_path / "long.eqn"
        src.write_text(f"base t\nfibre y\nlagrangian {model}\n")
        res = run_cli("derive", src)
    else:
        res = run_cli("derive", model_path(model), "--order", order)
    assert res.returncode == 2
    assert res.stderr == f"deviq: error: {message} per field, more than 256\n"


def test_ambiguous_coordinate_name_names_both_readings(tmp_path):
    src = tmp_path / "ambiguous.eqn"
    src.write_text("base t x\nfibre v tx\nlagrangian 0.5*v_t^2 + v_tx^2\n")
    res = run_cli("derive", src)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == (
        "deviq: error: line 3, column 24: coordinate name 'v_tx' is ambiguous: "
        "jet of 'v' collides with vertical partner of 'tx'\n"
    )


def test_simulate_two_dimensional_base_is_usage_error():
    res = run_cli("simulate", model_path("kg"))
    assert res.returncode == 2
    assert res.stderr.startswith("deviq: error: simulate needs a 1-dimensional base")
    assert len(res.stderr.splitlines()) == 1


def test_big_integer_root_is_exact(tmp_path):
    src = tmp_path / "big.eqn"
    src.write_text("base t\nfibre y\nlagrangian 0.5*y_t^2 + sqrt(1e400)*y\n")
    res = run_cli("derive", src)
    assert res.returncode == 0
    assert res.stdout == "1" + "0" * 200 + " - y_tt = 0\n"


def test_simulate_compiles_once(monkeypatch, capsys):
    calls = []
    compile_system = deviq.numeric.compile_system

    def counting(system):
        calls.append(system)
        return compile_system(system)

    monkeypatch.setattr(deviq.numeric, "compile_system", counting)
    monkeypatch.setattr(deviq.cli, "compile_system", counting, raising=False)
    code = deviq.cli.main([
        "simulate", str(model_path("oscillator")),
        "--init", "y=1,y_t=0", "--jacobi-init", "v_y=1", "--t1", "0.1", "--dt", "0.01",
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("t,y,y_t,v_y,v_y_t\n")
    assert len(calls) == 1


def test_negative_window_in_scientific_notation_is_a_value():
    argv = ("simulate", model_path("oscillator"), "--init", "y=1,y_t=0", "--t1", "0", "--dt", "1e-3")
    res = run_cli(*argv, "--t0", "-1e-2", binary=True)
    assert res.returncode == 0
    assert res.stdout.splitlines()[1].startswith(b"-0.01,")
    assert res.stdout == run_cli(*argv, "--t0=-1e-2", binary=True).stdout


def test_time_grid_that_does_not_increase_is_usage_error():
    # at 1e17 the floats are 16 apart, so t0 + dt rounds back to t0
    res = run_cli("simulate", model_path("oscillator"), "--init", "y=1,y_t=0",
                  "--t0", "1e17", "--t1", "1.0000000000000002e17", "--dt", "4")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "deviq: error: the time grid from t0=1e+17 in steps of dt=4.0 does not strictly increase\n"


@pytest.mark.parametrize("argv,message", [
    (("simulate", "--init", "y=nan,y_t=0"), "base initial data y=nan is not a finite number"),
    (("simulate", "--init", "y=inf,y_t=0"), "base initial data y=inf is not a finite number"),
    (("simulate", "--init", "y=1,y_t=0", "--jacobi-init", "v_y=nan"),
     "jacobi initial data v_y=nan is not a finite number"),
    (("residual", "--init", "y=1,y_t=0", "--jacobi-init", "v_y=0,v_y_t=1", "--eps", "nan"),
     "--eps needs a comma-separated list of positive finite numbers"),
    (("residual", "--init", "y=1,y_t=0", "--jacobi-init", "v_y=0,v_y_t=1", "--eps", "1e-2,inf"),
     "--eps needs a comma-separated list of positive finite numbers"),
])
def test_non_finite_data_is_usage_error(argv, message):
    res = run_cli(argv[0], model_path("oscillator"), *argv[1:], "--t1", "0.5")
    assert res.returncode == 2
    assert res.stderr == f"deviq: error: {message}\n"


def test_symbolic_commands_never_load_numpy():
    model = str(model_path("pendulum"))
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import deviq
        from deviq import cli
        print("numpy" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in (
                ["derive", {model!r}], ["deviate", {model!r}, "--format", "json"], ["check", {model!r}],
            )]
        print(codes, "numpy" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", {model!r}, "--init", "y=1,y_t=0", "--t1", "0.1"])
        print(code, "numpy" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["residual", {model!r}, "--init", "y=1,y_t=0", "--jacobi-init", "v_y=0,v_y_t=1",
                             "--t1", "0.1", "--dt", "1e-2"])
        print(code, "numpy" in sys.modules)
    """)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.stdout == "False\n[0, 0, 0] False\n0 False\n0 False\n", res.stderr


@pytest.mark.parametrize("flag,value,name", [
    ("--init", "y=1,y=2,y_t=0", "y"),
    ("--jacobi-init", "v_y=1,v_y_t=0,v_y_t=1", "v_y_t"),
])
def test_repeated_assignment_is_usage_error(flag, value, name):
    argv = ["simulate", model_path("pendulum"), "--init", "y=1,y_t=0", "--t1", "0.1", flag, value]
    res = run_cli(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"deviq: error: {flag} gives '{name}' more than once\n"


#: a form nested n levels deep, and the offset in it of the token that
#: opens level k + 1
NESTINGS = {
    "unary signs": (lambda n: "-" * n + "y", lambda k: k),
    "parentheses": (lambda n: "(" * n + "y" + ")" * n, lambda k: k),
    "calls": (lambda n: "sin(" * n + "y" + ")" * n, lambda k: 4 * k),
    "exponents": (lambda n: "y" + "^1" * n, lambda k: 2 * k + 1),
}


@pytest.mark.parametrize("form", NESTINGS)
def test_nesting_cap(tmp_path, form):
    from deviq.expr import MAX_NESTING

    nested, opener = NESTINGS[form]
    head = "lagrangian 0.5*y_t^2 - "
    src = tmp_path / "deep.eqn"
    src.write_text(f"base t\nfibre y\n{head}{nested(MAX_NESTING)}\n")
    res = run_cli("derive", src)
    assert res.returncode == 0, res.stderr
    assert res.stdout.endswith(" = 0\n")
    src.write_text(f"base t\nfibre y\n{head}{nested(MAX_NESTING + 1)}\n")
    res = run_cli("derive", src)
    assert res.returncode == 2
    column = len(head) + 1 + opener(MAX_NESTING)
    assert res.stderr == (
        f"deviq: error: line 3, column {column}: "
        f"expression nested more than {MAX_NESTING} levels deep\n"
    )


def _imported(*argv):
    """Modules a cold `python -m deviq` process imports, from `-X importtime`."""
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "deviq", *[str(a) for a in argv]],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    return {
        line.split("|")[-1].strip()
        for line in res.stderr.splitlines() if line.startswith("import time:")
    }


@pytest.mark.parametrize("command", ["derive", "deviate", "check"])
def test_symbolic_commands_import_no_numeric_layer(command):
    loaded = _imported(command, model_path("pendulum"))
    assert "deviq.model" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "deviq.numeric", "numpy"})


@pytest.mark.parametrize("command", ["simulate", "residual"])
def test_numeric_commands_import_no_dataclasses_or_numpy(command):
    loaded = _imported(command, model_path("pendulum"), "--init", "y=1,y_t=0", "--t1", "0.1",
                       "--dt", "0.01")
    assert "deviq.numeric" in loaded
    assert loaded.isdisjoint({"dataclasses", "numpy"})
