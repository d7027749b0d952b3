"""The CLI's exit-code contract on generated model files and window flags.

Every run of `deviq.cli.main` must end in exit 0, 1, 2 or 3 with no
traceback, and exit 1 only comes from `check` (README, "Exit codes").
The models mix well-formed payloads with big numbers, big and rational
exponents, powers of sums, unknown names and stray tokens; the window
flags mix ordinary values with zero, negative, non-finite and huge ones.
The example count is bounded and the search derandomized, so the test is
deterministic.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from deviq import cli
from deviq.expr import MAX_NORMAL_FORM_TERMS

NUMBERS = ("0", "1", "2", "0.5", "3/7", "1e-3", "1e400", "1e999", "1e1001", "9" * 1200, "1e10000000")
EXPONENTS = ("2", "3", "(-1)", "(1/2)", "(2/3)", "40", "3000", "100000000", "(10^999)", "(1e1001)", "2^2^2^2^2")
SYMBOLS = ("y", "y_t", "y_tt", "t", "a", "pt_y", "z")
FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")


def _expressions():
    leaves = st.sampled_from(NUMBERS + SYMBOLS)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.sampled_from(EXPONENTS)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(FUNCTIONS), inner).map(lambda t: f"{t[0]}({t[1]})"),
        ),
        max_leaves=6,
    )


@st.composite
def models(draw):
    kind = draw(st.sampled_from(("lagrangian", "hamiltonian", "equation")))
    payload = draw(_expressions())
    if kind != "equation":
        payload = f"0.5*{'pt_y' if kind == 'hamiltonian' else 'y_t'}^2 + {payload}"
    lines = ["base t", "fibre y", f"param a = {draw(st.sampled_from(NUMBERS))}", f"{kind} {payload}"]
    if draw(st.booleans()):
        # a stray token or a line out of order
        i = draw(st.integers(0, len(lines)))
        lines.insert(i, draw(st.sampled_from(("^", "base t", "fibre", "param b = x", "lagrangian", "y_t ="))))
    return "\n".join(lines) + "\n"


#: nested functions whose normal forms swell: `derive` builds 1343 terms,
#: `deviate` about 16k; `expr.MAX_NORMAL_FORM_TERMS` refuses it
SWELL = (
    "base t\nfibre y\nlagrangian (((y_tt)^(1/2)) + ((4) + (y)))/(sqrt(ln(((y_t)/(exp(((y) + "
    "(cos(((y)^(-1))*((y)*(tan(y_tt)))+3)))*((4)^3)+2)+3))^3+2)+2)+4)\n"
)

#: products of factors inside `expr.MAX_EXPANSION_TERMS` that would
#: build 250000 and 125M terms; each is refused while it is built
PRODUCTS = tuple(
    f"base t\nfibre y\nlagrangian 0.5*y_t^2 + {product}\n"
    for product in ("(y+1)^499*(y_t+1)^499", "(y+1)^499*(y_t+1)^499*(y_tt+1)^499")
)

WINDOW_VALUES = ("0", "0.1", "1", "-1", "1e12", "1e-300", "nan", "inf", "-inf", "x")


@st.composite
def commands(draw):
    command = draw(st.sampled_from(("derive", "deviate", "check", "simulate", "residual")))
    argv = [command]
    if command in ("derive", "deviate"):
        argv += ["--format", draw(st.sampled_from(("text", "latex", "json")))]
    if command in ("simulate", "residual"):
        argv.append("--init=" + draw(st.sampled_from(("y=1,y_t=0", "y=1", "y=1,pt_y=0", "y=nan,y_t=0"))))
        argv.append("--jacobi-init=" + draw(st.sampled_from(("v_y=1", "", "w=1"))))
        for flag in draw(st.lists(st.sampled_from(("--t0", "--t1", "--dt")), unique=True)):
            argv.append(f"{flag}={draw(st.sampled_from(WINDOW_VALUES))}")
        if "--dt" not in " ".join(argv):
            # the default step over the default window is 10^4 RK4 steps
            argv.append("--dt=0.01")
    return argv


def run_main(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.eqn"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([argv[0], str(path), *argv[1:]])
            except SystemExit as ex:  # argparse rejects the flags
                code = ex.code
        return code, err.getvalue()


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=models(), argv=commands())
@example(text="base t\nfibre y\nlagrangian 0.5*y_t^2 + 2^100000000*y\n", argv=["derive"])
@example(text="base t\nfibre y\nlagrangian 0.5*y_t^2 + (y+1)^3000\n", argv=["derive"])
@example(
    text="base t\nfibre y\nlagrangian 0.5*y_t^2 - 0.5*y^2\n",
    argv=["simulate", "--init=y=1,y_t=0", "--t1=1e12"],
)
@example(  # a window shorter than 1e-9 steps integrates to one grid point
    text="base t\nfibre y\nhamiltonian 0.5*pt_y^2\n",
    argv=["residual", "--init=y=1,pt_y=0", "--t1=1e-300"],
)
# nested past the recursion limit: a parse error, not a RecursionError
@example(text="base t\nfibre y\nlagrangian 0.5*y_t^2 - " + "-" * 1000 + "y\n", argv=["derive"])
@example(text="base t\nfibre y\nlagrangian 0.5*y_t^2 - " + "(" * 300 + "y" + ")" * 300 + "\n", argv=["derive"])
@example(text="base t\nfibre y\nlagrangian 0.5*y_t^2 - " + "sin(" * 300 + "y" + ")" * 300 + "\n", argv=["derive"])
@example(text="base t\nfibre y\nlagrangian 0.5*y_t^2 - y" + "^1" * 1000 + "\n", argv=["derive"])
@example(text=SWELL, argv=["deviate"])
@example(text=SWELL, argv=["check"])
@example(text=PRODUCTS[0], argv=["derive"])
@example(text=PRODUCTS[1], argv=["derive"])
def test_exit_code_contract(text, argv):
    code, err = run_main(text, argv)
    if text == SWELL or text in PRODUCTS:
        assert code == 2 and f"more than {MAX_NORMAL_FORM_TERMS}" in err, err
        assert err.count("\n") == 1, err
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    if code == 1:
        assert argv[0] == "check", err
    if code in (2, 3) and not err.startswith("usage:"):  # argparse prints its usage
        assert err.startswith(("deviq: error:", "deviq: numeric failure:")), err
        assert len(err.splitlines()) == 1, err
