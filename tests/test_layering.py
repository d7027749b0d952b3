"""Module boundaries of the package, read from its source with `ast`.

The naming rule of generated coordinates lives in `deviq.bundle`: other
modules hand coordinates around as Symbols and ask the spec for jets and
partners, so they name neither the private coordinate record, nor the
prefix table that writes and reads names, nor the decoder.  `render` is
the one reader of decoded names, for LaTeX output.
Generated code is defined in one place, `numeric._define`, from text that
`numeric._emit` writes.  No module builds its classes with `dataclasses`,
and only the package and the CLI load `numeric`, where a numeric name is
used, so the symbolic commands start without it.  `check` decides each
pair by `equivalent`, which compares normal forms, so no module imports
`random`; a cold symbolic command loads neither `random`, nor `json`, nor
`numpy`.
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import deviq

SOURCES = sorted(Path(deviq.__file__).parent.glob("*.py"))
PRIVATE_CODEC = {"_Coord", "_coord", "_coord_name", "_coord_symbol", "_decode", "_prefixes"}


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


def test_no_module_imports_random():
    importers = [
        p.name for p in SOURCES
        if any(name.split(".")[0] == "random" for name in _imports(ast.parse(p.read_text())))
    ]
    assert importers == []


@pytest.mark.parametrize("command", ["derive", "deviate", "check"])
def test_symbolic_commands_load_no_random_json_or_numpy(tmp_path, command):
    model = Path(deviq.__file__).parents[2] / "models" / "pendulum.eqn"
    # site hooks may load some of these before any user code runs: forget
    # them, so the command must import them anew to have them again
    script = textwrap.dedent(f"""
        import sys
        AVOIDED = ("random", "json", "numpy")
        for name in AVOIDED:
            sys.modules.pop(name, None)
        from deviq import cli
        code = cli.main([{command!r}, {str(model)!r}, "--out", {str(tmp_path / "out")!r}])
        print(code, [name for name in AVOIDED if name in sys.modules])
    """)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.stdout == "0 []\n", res.stderr
