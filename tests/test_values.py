"""Value semantics of deviq's immutable records, and the lazy numeric names.

Each record compares equal exactly to an instance of its own class with
equal fields, hashes like the tuple of its fields (so sets and dicts keep
their order), refuses assignment, takes its fields by position or keyword
and has a fixed repr.
"""

import copy
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import deviq
from deviq import (
    DEFAULT_DT,
    Add,
    BundleSpec,
    CommutationReport,
    EquationSystem,
    EquivalenceResult,
    FirstOrderSystem,
    Fun,
    HamiltonianSystem,
    JacobiProblem,
    Lagrangian,
    ModelFile,
    Mul,
    MultiIndex,
    PairCheck,
    Pow,
    Rat,
    ResidualTable,
    Sym,
    Symbol,
    SymbolKind,
    deviation_system,
    normalize,
)
from deviq.bundle import _Coord

T = Symbol("t", SymbolKind.BASE)
Y = Symbol("y", SymbolKind.FIBRE)
SPEC = BundleSpec.make(["t"], ["y"])
Y_T = Sym(SPEC.symbol("y_t"))
HSPEC = BundleSpec.make(["t"], ["y"], momenta=True)
PT_Y = Sym(HSPEC.symbol("pt_y"))
SPEC_REPR = (
    "BundleSpec(base=(Symbol('t', BASE),), fibre=(Symbol('y', FIBRE),), params=(), order=1, "
    "param_values=(), momenta=False, vertical=False)"
)
EQUAL = EquivalenceResult("equal", "normal forms coincide")
EQUAL_REPR = "EquivalenceResult(verdict='equal', reason='normal forms coincide')"
PAIR = PairCheck("y vs y", Sym(Y), Sym(Y), EQUAL)
PAIR_REPR = f"PairCheck(label='y vs y', left=Sym(y), right=Sym(y), result={EQUAL_REPR})"
FLOW = deviation_system(EquationSystem((Y_T + Sym(Y),), SPEC))

#: (class, constructor arguments by keyword, stored field names, repr)
ROWS = [
    (Symbol, dict(name="y", kind=SymbolKind.FIBRE), ("name", "kind"), "Symbol('y', FIBRE)"),
    (Rat, dict(value=Fraction(1, 2)), ("value",), "Rat(1/2)"),
    (Sym, dict(symbol=Y), ("symbol",), "Sym(y)"),
    (Add, dict(terms=(Sym(Y), Rat(Fraction(1)))), ("terms",), "Add(Sym(y), Rat(1))"),
    (Mul, dict(factors=(Rat(Fraction(2)), Sym(Y))), ("factors",), "Mul(Rat(2), Sym(y))"),
    (Pow, dict(base=Sym(Y), exponent=Fraction(3)), ("base", "exponent"), "Pow(Sym(y), 3)"),
    (Fun, dict(name="sin", arg=Sym(Y)), ("name", "arg"), "Fun(sin, Sym(y))"),
    (
        EquivalenceResult,
        dict(verdict="different", reason="normal forms differ by 2 terms"),
        ("verdict", "reason"),
        "EquivalenceResult(verdict='different', reason='normal forms differ by 2 terms')",
    ),
    (MultiIndex, dict(entries=(1, 0)), ("entries",), "MultiIndex(0, 1)"),
    (
        _Coord,
        dict(field=0, index=MultiIndex((0,)), vertical=True, mom_base=None),
        ("field", "index", "vertical", "mom_base"),
        "_Coord(field=0, index=MultiIndex(0,), vertical=True, mom_base=None)",
    ),
    (
        BundleSpec,
        dict(base=("t",), fibre=("y",), params=("a",), order=2, param_values=(("a", 1),),
             momenta=False, vertical=False),
        ("base", "fibre", "params", "order", "param_values", "momenta", "vertical"),
        "BundleSpec(base=(Symbol('t', BASE),), fibre=(Symbol('y', FIBRE),), "
        "params=(Symbol('a', PARAMETER),), order=2, param_values=(('a', Fraction(1, 1)),), "
        "momenta=False, vertical=False)",
    ),
    (
        EquationSystem,
        dict(equations=(Y_T + Sym(Y),), spec=SPEC, structure="plain"),
        ("equations", "spec", "structure"),
        f"EquationSystem(equations=(Add(Sym(y), Sym(y_t)),), spec={SPEC_REPR}, structure='plain')",
    ),
    (
        Lagrangian,
        dict(density=Y_T * Y_T, spec=SPEC),
        ("density", "spec", "order"),
        f"Lagrangian(density=Pow(Sym(y_t), 2), spec={SPEC_REPR}, order=1)",
    ),
    (
        PairCheck,
        dict(label="y vs y", left=Sym(Y), right=Sym(Y), result=EQUAL),
        ("label", "left", "right", "result"),
        PAIR_REPR,
    ),
    (
        CommutationReport,
        dict(title="T", entries=(PAIR,)),
        ("title", "entries"),
        f"CommutationReport(title='T', entries=({PAIR_REPR},))",
    ),
    (
        HamiltonianSystem,
        dict(density=PT_Y * PT_Y, spec=HSPEC),
        ("density", "spec"),
        "HamiltonianSystem(density=Pow(Sym(pt_y), 2), spec=BundleSpec(base=(Symbol('t', BASE),), "
        "fibre=(Symbol('y', FIBRE),), params=(), order=1, param_values=(), momenta=True, "
        "vertical=False))",
    ),
    (
        ModelFile,
        dict(kind="lagrangian", spec=SPEC, payload=(Sym(Y),)),
        ("kind", "spec", "payload"),
        f"ModelFile(kind='lagrangian', spec={SPEC_REPR}, payload=(Sym(y),))",
    ),
    (
        FirstOrderSystem,
        dict(base=T, states=(Y,), rhs=(Sym(Y),)),
        ("base", "states", "rhs"),
        "FirstOrderSystem(base=Symbol('t', BASE), states=(Symbol('y', FIBRE),), rhs=(Sym(y),))",
    ),
    (
        JacobiProblem,
        dict(system=FLOW, base_init={"y": 1}, jacobi_init={}, t0=0.0, t1=1.0, dt=0.5),
        ("system", "base_init", "jacobi_init", "t0", "t1", "dt"),
        f"JacobiProblem(system={FLOW!r}, base_init={{'y': 1.0}}, jacobi_init={{'v_y': 0.0}}, "
        "t0=0.0, t1=1.0, dt=0.5)",
    ),
    (
        ResidualTable,
        dict(entries=((0.01, 1e-4),), exponent=2.0, metadata={"norm": "max"}),
        ("entries", "exponent", "metadata"),
        "ResidualTable(entries=((0.01, 0.0001),), exponent=2.0, metadata={'norm': 'max'})",
    ),
]


@pytest.mark.parametrize("cls,kwargs,fields,text", ROWS, ids=[row[0].__name__ for row in ROWS])
def test_value_semantics(cls, kwargs, fields, text):
    x = cls(*kwargs.values())
    y = cls(**kwargs)
    assert x == y and not x != y and x is not y
    twin = type("Twin", (cls,), {})(**kwargs)
    assert x != twin and twin != x

    values = tuple(getattr(x, f) for f in fields)
    try:
        expected = hash(values)
    except TypeError:  # a dict field leaves the record unhashable too
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == expected
        assert {x: 1}[y] == 1

    with pytest.raises(AttributeError):
        setattr(x, fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(x, fields[-1])
    assert tuple(getattr(x, f) for f in fields) == values
    assert repr(x) == text


@pytest.mark.parametrize("make,field,default", [
    # a Jacobi value not given starts at 0
    (lambda: JacobiProblem(FLOW, {"y": 1}, {}, 0.0, 1.0), "jacobi_init", {"v_y": 0.0}),
    (lambda: MultiIndex(), "entries", ()),
    (lambda: _Coord(0, MultiIndex(), False), "mom_base", None),
    (lambda: BundleSpec(("t",), ("y",)), "params", ()),
    (lambda: BundleSpec(("t",), ("y",)), "order", 1),
    (lambda: BundleSpec(("t",), ("y",)), "param_values", ()),
    (lambda: BundleSpec(("t",), ("y",)), "momenta", False),
    (lambda: BundleSpec(("t",), ("y",)), "vertical", False),
    (lambda: EquationSystem((Sym(Y),), SPEC), "structure", "plain"),
    (lambda: JacobiProblem(FLOW, {"y": 1}, {}, 0.0, 1.0), "dt", DEFAULT_DT),
])
def test_defaults(make, field, default):
    assert getattr(make(), field) == default


def test_normalising_constructors():
    assert MultiIndex((2, 0, 1)).entries == (0, 1, 2)
    assert BundleSpec(("t",), ("y",)) == SPEC
    system = EquationSystem((Sym(Y) + Y_T,), SPEC)
    assert system.equations == (Add((Sym(Y), Y_T)),)
    assert system.equations[0]._expansion is not None  # the normal form keeps its expansion


def test_derived_specs():
    spec = BundleSpec(("t",), ("y",), ("a",), 1, (("a", 2),))
    assert spec.with_order(3) == BundleSpec(("t",), ("y",), ("a",), 3, (("a", 2),))
    assert spec.with_momenta() == BundleSpec(("t",), ("y",), ("a",), 1, (("a", 2),), momenta=True)
    assert spec.vertical_extension() == BundleSpec(
        ("t",), ("y",), ("a",), 1, (("a", 2),), vertical=True
    )
    assert spec.bind_params({"a": 3}).param_values == (("a", Fraction(3)),)
    assert spec.with_order(3).with_momenta().order == 3
    assert spec.param_values == (("a", Fraction(2)),)  # the original is unchanged


def test_jacobi_problem_ignores_its_compiled_system():
    p = JacobiProblem(FLOW, {"y": 1}, {"v_y": 2}, 0.0, 1.0)
    q = JacobiProblem(FLOW, {"y": 1.0}, {"v_y": 2.0}, 0.0, 1.0)
    assert p.compiled is not q.compiled and p.compiled == q.compiled
    assert p == q
    assert p != JacobiProblem(FLOW, {"y": 1}, {"v_y": 2}, 0.0, 1.0, 0.5)
    assert "compiled" not in repr(p)


def test_cached_attributes_outside_the_fields():
    fos = JacobiProblem(FLOW, {"y": 1}, {}, 0.0, 1.0).compiled
    assert fos._loop is fos._loop  # a cached_property
    assert fos.base_part == FirstOrderSystem(fos.base, fos.states[:1], fos.rhs[:1])
    assert hash(fos) == hash((fos.base, fos.states, fos.rhs))


def test_copies_and_pickles_keep_value_and_hash():
    e = normalize(Fun("sin", Sym(Y)) * Sym(Y) + Rat(Fraction(1, 3)))
    for x in (Y, Sym(Y), e, SPEC, FLOW):
        for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert clone == x and hash(clone) == hash(x)
    # a symbol pickled under another string hash seed hashes anew here
    script = (
        "import pickle, sys; from deviq import Fun, Sym, Symbol, SymbolKind; "
        "y = Sym(Symbol('y', SymbolKind.FIBRE)); "
        "sys.stdout.buffer.write(pickle.dumps((y.symbol, y, Fun('cos', y))))"
    )
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env).stdout
        symbol, sym, fun = pickle.loads(out)
        assert hash(symbol) == hash(("y", SymbolKind.FIBRE)) == hash(Y)
        assert hash(sym) == hash(Sym(Y)) and hash(fun) == hash(Fun("cos", Sym(Y)))


def test_numeric_names_resolve_through_the_package(monkeypatch):
    from deviq import integrate

    import deviq.numeric

    assert integrate is deviq.numeric.integrate
    assert deviq.JacobiProblem is deviq.numeric.JacobiProblem
    assert all(hasattr(deviq, name) for name in deviq.__all__)
    assert set(deviq.__all__) <= set(dir(deviq))
    with pytest.raises(AttributeError):
        deviq.no_such_name
    # nothing is cached in the package: a rebinding in deviq.numeric shows
    monkeypatch.setattr(deviq.numeric, "solve_jacobi", len)
    assert deviq.solve_jacobi is len
    assert "solve_jacobi" not in vars(deviq)


def test_import_deviq_loads_numeric_on_first_use():
    script = textwrap.dedent("""
        import sys
        import deviq
        print(sorted(m for m in ("dataclasses", "inspect", "deviq.numeric") if m in sys.modules))
        from deviq import integrate
        print("deviq.numeric" in sys.modules, integrate is deviq.numeric.integrate)
    """)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.stdout == "[]\nTrue True\n", res.stderr
