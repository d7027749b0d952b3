"""Module boundaries of the package, read from its source with `ast`.

The naming rule of generated coordinates lives in `deviq.bundle`: other
modules hand coordinates around as the expression atoms `Sym(name, kind)`,
the one symbol type, and ask the spec for jets and partners, so they name
neither the private coordinate record, nor the prefix table that writes
and reads names, nor the decoder.  `render` is the one reader of decoded
names, for LaTeX output.
Generated code is defined in one place, `numeric._define`, from text that
`numeric._emit` writes.  No module builds its classes with `dataclasses`,
and only the package and the CLI load `numeric`, where a numeric name is
used, so the symbolic commands start without it; `numeric` loads
`horner`, which makes the forms it writes, only with the first form.  `check` decides each
pair by `equivalent`, which compares normal forms, so no module imports
`random`; a cold symbolic command loads neither `random`, nor `json`, nor
`numpy`, and neither do `simulate` and `residual`, which step and sweep
the flow on Python floats, nor a Jacobi solve, the two oracles or the CSV
of a trajectory: numpy loads where an array is read.
Each misuse is refused in one place: only the spec raises
`VerticalExtensionError`, and the CLI takes its exit codes from the error
classes, naming no list of them.
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import deviq

SOURCES = sorted(Path(deviq.__file__).parent.glob("*.py"))
PRIVATE_CODEC = {"_Coord", "_coord", "_coord_name", "_entry", "_intern", "_decode", "_prefixes"}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _imports(tree):
    """Modules a source imports anywhere, package-relative names bare:
    `from .numeric import x`, `from . import numeric` and `import
    deviq.numeric` all give `numeric`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            yield name.removeprefix("deviq.")


def _calls(tree, attr):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
    ]


def test_sources_found():
    assert {"bundle.py", "numeric.py", "render.py"} <= {p.name for p in SOURCES}


def test_coordinate_codec_stays_in_bundle():
    offenders = [
        (p.name, name)
        for p in SOURCES if p.name != "bundle.py"
        for name in _names(ast.parse(p.read_text()))
        if name in PRIVATE_CODEC
    ]
    assert offenders == []


def test_classify_called_only_in_bundle_and_render():
    offenders = [
        (p.name, node.lineno)
        for p in SOURCES if p.name not in ("bundle.py", "render.py")
        for node in _calls(ast.parse(p.read_text()), "classify")
    ]
    assert offenders == []


def test_compile_system_resolves_no_names():
    tree = ast.parse((Path(deviq.__file__).parent / "numeric.py").read_text())
    (compile_fn,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "compile_system"
    ]
    assert [node.lineno for node in _calls(compile_fn, "symbol")] == []


def test_one_symbol_type():
    """No module defines or names a second symbol type, and none reads a
    `symbol` attribute; `spec.symbol(name)`, a call, resolves a name."""
    offenders = []
    for p in SOURCES:
        tree = ast.parse(p.read_text())
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            names = {getattr(node, f, None) for f in ("name", "id", "asname", "attr")}
            if "Symbol" in names or (
                isinstance(node, ast.Attribute) and node.attr == "symbol" and id(node) not in callees
            ):
                offenders.append((p.name, node.lineno))
    assert offenders == []


def test_eval_and_exec_only_in_the_code_generator():
    where = {
        (p.name, getattr(top, "name", None))
        for p in SOURCES
        for top in ast.parse(p.read_text()).body
        for name in _names(top)
        if name in ("eval", "exec")
    }
    assert where == {("numeric.py", "_define")}


def test_no_module_imports_dataclasses():
    offenders = [
        p.name for p in SOURCES
        if any(name.split(".")[0] == "dataclasses" for name in _imports(ast.parse(p.read_text())))
    ]
    assert offenders == []


def test_numeric_imported_only_by_the_package_and_the_cli():
    importers = {
        p.name for p in SOURCES
        if "numeric" in set(_imports(ast.parse(p.read_text())))
    }
    assert importers == {"__init__.py", "cli.py"}


def test_forms_load_where_the_first_form_is_made():
    """Compiling a system makes no form, so `deviq.horner`, which makes the
    forms the code generator writes, loads only with the first of them."""
    model = Path(deviq.__file__).parents[2] / "models" / "pendulum.eqn"
    script = textwrap.dedent(f"""
        import sys
        from deviq import compile_system, deviation_equations, load_model
        fos = compile_system(deviation_equations(load_model({str(model)!r})))
        print("deviq.horner" in sys.modules, fos(0.0, [1.0] * fos.dimension) and "deviq.horner" in sys.modules)
    """)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.stdout == "False True\n", res.stderr


def test_no_module_imports_random():
    importers = [
        p.name for p in SOURCES
        if any(name.split(".")[0] == "random" for name in _imports(ast.parse(p.read_text())))
    ]
    assert importers == []


#: the numeric commands integrate a short pendulum window
NUMERIC_ARGS = ["--init", "y=2,y_t=0", "--jacobi-init", "v_y=1", "--t1", "2"]


@pytest.mark.parametrize("command,args", [
    ("derive", []), ("deviate", []), ("check", []), ("simulate", NUMERIC_ARGS), ("residual", NUMERIC_ARGS),
], ids=["derive", "deviate", "check", "simulate", "residual"])
def test_symbolic_commands_load_no_random_json_or_numpy(tmp_path, command, args):
    model = Path(deviq.__file__).parents[2] / "models" / "pendulum.eqn"
    # site hooks may load some of these before any user code runs: forget
    # them, so the command must import them anew to have them again
    script = textwrap.dedent(f"""
        import sys
        AVOIDED = ("random", "json", "numpy")
        for name in AVOIDED:
            sys.modules.pop(name, None)
        from deviq import cli
        code = cli.main([{command!r}, {str(model)!r}, *{args!r}, "--out", {str(tmp_path / "out")!r}])
        print(code, [name for name in AVOIDED if name in sys.modules])
    """)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.stdout == "0 []\n", res.stderr


def test_jacobi_runs_load_numpy_only_where_an_array_is_read():
    """A Jacobi solve, both oracles and the CSV of their trajectories work on
    flat doubles; the first `.states` read loads numpy and gives read-only
    arrays equal to the CSV values.  Compiling the problem's system loads
    not even `array`, which holds the doubles."""
    model = Path(deviq.__file__).parents[2] / "models" / "pendulum.eqn"
    script = textwrap.dedent(f"""
        import sys
        for name in ("array", "numpy"):
            sys.modules.pop(name, None)
        from deviq import (JacobiProblem, deviation_equations, finite_difference_jacobi, load_model,
                           perturbation_residual, solve_jacobi)
        prob = JacobiProblem(deviation_equations(load_model({str(model)!r})), {{"y": 2.0, "y_t": 0.0}},
                             {{"v_y": 1.0}}, 0.0, 2.0)
        print("array" in sys.modules)
        runs = [*solve_jacobi(prob), finite_difference_jacobi(prob, 1e-3)]
        perturbation_residual(prob)
        texts = [traj.to_csv() for traj in runs]
        print("numpy" in sys.modules)
        states = [traj.states for traj in runs]
        print("numpy" in sys.modules, [s.flags.writeable for s in states])
        print(all(s.tolist() == [[float(v) for v in line.split(",")[1:]] for line in text.splitlines()[1:]]
                  for s, text in zip(states, texts)))
    """)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.stdout == "False\nFalse\nTrue [False, False, False]\nTrue\n", res.stderr


def test_only_the_spec_raises_vertical_extension_error():
    """Whether an object already lives on VY is a property of its chart, so
    `BundleSpec.vertical_extension` and `BundleSpec.vertical_partner` are
    the two places that refuse a second vertical extension."""
    raisers = set()
    for p in SOURCES:
        tree = ast.parse(p.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Raise) and node.exc is not None and \
                        "VerticalExtensionError" in set(_names(node.exc)):
                    raisers.add((p.name, fn.name))
    assert raisers == {("bundle.py", "vertical_extension"), ("bundle.py", "vertical_partner")}


def test_cli_maps_exit_codes_from_the_error_classes():
    """The CLI keeps no list of usage errors: it names the base class, the
    three numeric bases (exit 3) and `SpecError`, which it raises itself."""
    from deviq import errors

    error_names = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.DeviqError)
    }
    tree = ast.parse((Path(deviq.__file__).parent / "cli.py").read_text())
    named = set(_names(tree)) & error_names
    assert named == {"DeviqError", "SpecError", "CompileError", "EvalError", "IntegrationError"}
