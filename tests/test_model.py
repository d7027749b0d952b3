"""Model-file DSL: declarations, expression grammar, error positions."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from deviq import (
    Add,
    Fun,
    Mul,
    ParseError,
    Pow,
    Rat,
    SpecError,
    Sym,
    check_model,
    load_model,
    normalize,
    parse_model,
    to_text,
)
from deviq.expr import MAX_CONSTANT_DIGITS, MAX_NESTING
from conftest import (
    EQUATION_MODELS,
    HAMILTONIAN_MODELS,
    LAGRANGIAN_MODELS,
    corpus_model,
    model_path,
)
from grammar import random_model

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from chains import FAMILIES, FORMS, make_chain, model_text  # noqa: E402


def test_oscillator_example():
    m = parse_model("base t\nfibre y\nparam omega = 1\nlagrangian 0.5*(y_t^2 - omega^2*y^2)")
    assert m.kind == "lagrangian"
    assert m.spec.base_names == ("t",)
    assert m.spec.fibre_names == ("y",)
    assert m.spec.param_value("omega") == 1
    assert m.spec.order == 2


def test_missing_base_message():
    with pytest.raises(ParseError, match="missing base declaration"):
        parse_model("fibre y\nlagrangian y^2\n")


def test_reserved_prefix_collision():
    with pytest.raises(ParseError, match="collides with the generated coordinate namespace"):
        parse_model("base t\nfibre v_y\nlagrangian y^2\n")


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_model("base t\nfibre y\nlagrangian 0.5*z^2\n")
    assert err.value.line == 3 and err.value.column == 16
    with pytest.raises(ParseError) as err:
        parse_model("base t\nfibre y\nlagrangian y @ 2\n")
    assert err.value.line == 3 and err.value.column == 14


def test_comments_and_blank_lines():
    m = parse_model("""
# leading comment
base t    # trailing comment
fibre y

lagrangian y_t^2  # density
""")
    assert m.kind == "lagrangian"


def test_multiple_model_kinds_rejected():
    with pytest.raises(ParseError, match="multiple model kinds"):
        parse_model("base t\nfibre y\nlagrangian y^2\nequation y_t\n")
    with pytest.raises(ParseError, match="declared twice"):
        parse_model("base t\nfibre y\nlagrangian y^2\nlagrangian y\n")


def test_repeated_equations_allowed():
    m = parse_model("base t\nfibre y u\nequation y_t - u\nequation u_t + y\n")
    assert m.kind == "equation"
    assert len(m.payload) == 2


def test_declaration_order_enforced():
    with pytest.raises(ParseError, match="param must precede"):
        parse_model("base t\nfibre y\nlagrangian y^2\nparam k\n")
    with pytest.raises(ParseError, match="base must be declared once, first"):
        parse_model("base t\nfibre y\nbase x\nlagrangian y^2\n")


def test_exponent_must_be_rational_constant():
    with pytest.raises(ParseError, match="rational constant"):
        parse_model("base t\nfibre y\nlagrangian y^y\n")
    m = parse_model("base t\nfibre y\nlagrangian y^(3/2) + y^-2\n")
    assert to_text(m.payload[0]) == "1/y^2 + y^(3/2)"


def test_right_associative_constant_tower():
    # 2^2^2 folds right-associatively to 16
    m = parse_model("base t\nfibre y\nequation y - 2^2^2\n")
    assert to_text(m.payload[0]) == "-16 + y"


def test_unknown_function():
    with pytest.raises(ParseError, match="unknown function 'cot'"):
        parse_model("base t\nfibre y\nlagrangian cot(y)\n")


def test_hamiltonian_forbids_jets_and_lagrangian_forbids_momenta():
    with pytest.raises(ParseError, match="not allowed in a hamiltonian"):
        parse_model("base t\nfibre y\nhamiltonian y_t^2\n")
    with pytest.raises(ParseError, match="not allowed in a lagrangian"):
        parse_model("base t\nfibre y\nlagrangian v_y^2\n")
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_model("base t\nfibre y\nlagrangian pt_y^2\n")
    # the check reads the normal form, where a cancelled symbol is gone
    assert to_text(parse_model("base t\nfibre y\nlagrangian y_t^2 + v_y - v_y\n").payload[0]) == "y_t^2"


def test_order_inference():
    assert parse_model("base t\nfibre y\nequation y_t - y\n").spec.order == 1
    assert parse_model("base t\nfibre y\nlagrangian y_t^2\n").spec.order == 2
    assert parse_model("base t\nfibre y\nlagrangian y_tt^2\n").spec.order == 4
    assert parse_model("base t\nfibre y\nhamiltonian pt_y^2\n").spec.order == 1


def test_order_override():
    m = parse_model("base t\nfibre y\nlagrangian y_t^2\n", order=3)
    assert m.spec.order == 3
    with pytest.raises(ParseError, match="below the inferred minimum"):
        parse_model("base t\nfibre y\nlagrangian y_t^2\n", order=1)


def test_scientific_and_rational_params():
    m = parse_model(
        "base t\nfibre y\nparam a = 1e-3\nparam b = 5/2\nparam c = -0.25\nequation y_t - a*y\n"
    )
    assert m.spec.param_value("a") == Fraction(1, 1000)
    assert m.spec.param_value("b") == Fraction(5, 2)
    assert m.spec.param_value("c") == Fraction(-1, 4)


def test_check_model_requires_a_theorem():
    with pytest.raises(SpecError):
        check_model(corpus_model("riccati"))


def test_whole_corpus_parses():
    for name in LAGRANGIAN_MODELS + HAMILTONIAN_MODELS + EQUATION_MODELS:
        m = corpus_model(name)
        assert m.payload


H = "base t\nfibre y\n"
L = H + "lagrangian "
TOO_LONG = f"number longer than {MAX_CONSTANT_DIGITS} digits"
TOO_DEEP = f"expression nested more than {MAX_NESTING} levels deep"
AMBIGUOUS = "coordinate name 'v_tx' is ambiguous: jet of 'v' collides with vertical partner of 'tx'"

#: (model text, order, line, column, message): one row per way to reach
#: each ParseError raise site of the parser
PARSE_ERRORS = [
    # characters
    ("base t\nfibre y\n\t\t@lagrangian y", None, 3, 3, "unexpected character '@'"),
    (L + "y @ # c", None, 3, 14, "unexpected character '@'"),
    (L + "y\x0c", None, 3, 13, "unexpected character '\\x0c'"),
    (L + "y\r+ y", None, 3, 13, "unexpected character '\\r'"),
    # expressions
    (L + "y +", None, 3, 15, "unexpected end of expression"),
    (L + "y +   # comment", None, 3, 15, "unexpected end of expression"),
    (L + "(y", None, 3, 14, "expected ')'"),
    (L + "(y  # comment", None, 3, 14, "expected ')'"),
    (L + "(y y)", None, 3, 15, "expected ')', got 'y'"),
    (L + "y y", None, 3, 14, "unexpected 'y' after expression"),
    (L + "y)", None, 3, 13, "unexpected ')' after expression"),
    (L + ")", None, 3, 12, "unexpected ')'"),
    (L + "y * )", None, 3, 16, "unexpected ')'"),
    (L + "= y", None, 3, 12, "unexpected '='"),
    (L + "y^y", None, 3, 13, "exponent of '^' must be a rational constant"),
    (L + "cot(y)", None, 3, 12, "unknown function 'cot'"),
    (L + "z", None, 3, 12, "unknown identifier 'z'"),
    (L + "y + cos", None, 3, 16, "unknown identifier 'cos'"),
    ("base t x\nfibre v tx\nlagrangian v_tx^2", None, 3, 12, AMBIGUOUS),
    # numbers
    (L + "y*" + "1" * 1001, None, 3, 14, TOO_LONG),
    (L + "y*1e1001", None, 3, 14, TOO_LONG),
    (H + "param a = 2e3000\nlagrangian y", None, 3, 11, TOO_LONG),
    # nesting
    (L + "(" * 36 + "y" + ")" * 36, None, 3, 47, TOO_DEEP),
    (L + "-" * 36 + "y", None, 3, 47, TOO_DEEP),
    (L + "sin(" * 36 + "y" + ")" * 36, None, 3, 152, TOO_DEEP),
    (L + "2^" * 36 + "y", None, 3, 83, TOO_DEEP),
    # declarations
    ("foo t", None, 1, 1, "expected a declaration keyword, got 'foo'"),
    ("1 t", None, 1, 1, "expected a declaration keyword, got '1'"),
    ("base", None, 1, 1, "base needs at least one coordinate"),
    ("base t 1", None, 1, 8, "expected an identifier, got '1'"),
    ("base t\nbase x", None, 2, 1, "base must be declared once, first"),
    ("fibre y", None, 1, 1, "missing base declaration"),
    ("base t\nfibre", None, 2, 1, "fibre needs at least one coordinate"),
    ("base t\nfibre y 2", None, 2, 9, "expected an identifier, got '2'"),
    ("base t\nfibre y\nfibre u", None, 3, 1, "fibre must follow base, once"),
    ("base t\nfibre v_y\nlagrangian y", None, 2, 7,
     "'v_y' collides with the generated coordinate namespace "
     "(underscores are reserved for jet, vertical and momentum names)"),
    ("base t\nfibre sin\nlagrangian y", None, 2, 7, "'sin' is a reserved function name"),
    ("base t\nfibre param\nlagrangian y", None, 2, 7, "'param' is a declaration keyword"),
    ("base t\nfibre t\nlagrangian y", None, 2, 7, "'t' is declared twice"),
    # parameters, each value form
    ("base t\nparam a", None, 2, 1, "param must follow the fibre declaration"),
    (L + "y\nparam a", None, 4, 1, "param must precede the model declaration"),
    (H + "param", None, 3, 1, "param needs a name"),
    (H + "param 1", None, 3, 1, "param needs a name"),
    (H + "param a 1", None, 3, 9, "expected '=', got '1'"),
    (H + "param a =", None, 3, 9, "param value must be a number"),
    (H + "param a = -", None, 3, 9, "param value must be a number"),
    (H + "param a = x", None, 3, 11, "param value must be a number"),
    (H + "param a = 1 2", None, 3, 11, "param value must be a number"),
    (H + "param a = 1/x", None, 3, 11, "param value must be a number"),
    (H + "param a = 1/2/3", None, 3, 11, "param value must be a number"),
    (H + "param a = (1)", None, 3, 11, "param value must be a number"),
    (H + "param a = 1/0", None, 3, 13, "param value divides by zero"),
    (H + "param a = -2/0.0", None, 3, 14, "param value divides by zero"),
    # model declarations
    ("lagrangian y", None, 1, 1, "missing base declaration"),
    ("base t\nlagrangian y", None, 2, 1, "missing fibre declaration"),
    (L + "y\nequation y", None, 4, 1, "multiple model kinds: 'lagrangian' and 'equation'"),
    (L + "y\n\nlagrangian y", None, 5, 1, "'lagrangian' declared twice"),
    (H + "lagrangian", None, 3, 1, "lagrangian needs an expression"),
    ("", None, 1, 1, "missing base declaration"),
    ("base t", None, 1, 1, "missing fibre declaration"),
    (H + "param a = 1", None, 1, 1,
     "missing model declaration (lagrangian, equation, or hamiltonian)"),
    ("base t tx\nfibre y\nlagrangian y", None, 1, 1,
     "base coordinate 't' is a prefix of 'tx'; jet suffixes would be ambiguous"),
    # symbol kinds and orders
    (H + "hamiltonian y_t^2", None, 3, 13, "'y_t' (jet-coordinate) is not allowed in a hamiltonian"),
    (L + "y_t^2 + v_y^2", None, 3, 20, "'v_y' (vertical-coordinate) is not allowed in a lagrangian"),
    # refusals of the order, which no one place in the text sets: no position
    (L + "y_t^2", 1, None, None, "--order 1 is below the inferred minimum 2 for this model"),
    (L + "y_t^2", 300, None, None,
     "jet order 300 over 1 base coordinate(s) gives 301 multi-indices per field, more than 256"),
    (L + "y_" + "t" * 300, None, None, None,
     "jet order 600 over 1 base coordinate(s) gives 601 multi-indices per field, more than 256"),
    ("base t x\nfibre v tx\nlagrangian v", 2, None, None, AMBIGUOUS),
    # rows added later go last: a row's index is part of its test id
    (L + "y_t^2 + y*\u0663", None, 3, 22, "unexpected character '\u0663'"),  # Arabic-Indic three
    (L + "y*\uff11", None, 3, 14, "unexpected character '\uff11'"),  # full-width one
    (L + "y - (v_y + v_y)", None, 3, 17, "'v_y' (vertical-coordinate) is not allowed in a lagrangian"),
    # a jet's multi-index is sorted, so the text y_xt names the symbol y_tx
    ("base t x\nfibre y\nhamiltonian y + y_xt^2", None, 3, 17,
     "'y_tx' (jet-coordinate) is not allowed in a hamiltonian"),
    ("base t x\nfibre y\nlagrangian v_y_xt", None, 3, 12,
     "'v_y_tx' (vertical-coordinate) is not allowed in a lagrangian"),
]


@pytest.mark.parametrize(
    "text,order,line,column,message", PARSE_ERRORS,
    ids=[f"{i}-{row[4][:32]}" for i, row in enumerate(PARSE_ERRORS)],
)
def test_parse_error_table(text, order, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_model(text, order=order)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == (message if line is None else f"line {line}, column {column}: {message}")


def test_disallowed_symbol_report_is_deterministic():
    # of several disallowed symbols the first by name is reported, under
    # every string hash seed
    script = (
        "import sys; from deviq import ParseError, parse_model\n"
        "try: parse_model(sys.argv[1])\n"
        "except ParseError as ex: print(ex)"
    )
    text = "base t\nfibre y u\nhamiltonian y_t*u_t + v_y\n"
    reports = {
        subprocess.run(
            [sys.executable, "-c", script, text],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2", "5")
    }
    assert reports == {"line 3, column 17: 'u_t' (jet-coordinate) is not allowed in a hamiltonian\n"}


NUMBER_FORMS = [
    ("1.", 1), (".5", Fraction(1, 2)), ("1e-3", Fraction(1, 1000)), ("1E+2", 100),
    ("0003", 3), ("2.50", Fraction(5, 2)), ("7" * MAX_CONSTANT_DIGITS, int("7" * MAX_CONSTANT_DIGITS)),
]


@pytest.mark.parametrize("literal,value", NUMBER_FORMS, ids=[lit[:8] for lit, _ in NUMBER_FORMS])
def test_number_forms(literal, value):
    m = parse_model(f"{H}param a = -{literal}\nequation y_t - {literal}*y\n")
    assert m.spec.param_value("a") == -value
    y, y_t = (m.spec.symbol(name) for name in ("y", "y_t"))
    assert m.payload == (normalize(y_t - Rat(Fraction(value)) * y),)


@pytest.mark.parametrize("name", LAGRANGIAN_MODELS + HAMILTONIAN_MODELS + EQUATION_MODELS)
def test_crlf_line_ends(name, tmp_path):
    text = model_path(name).read_text()
    crlf = text.replace("\n", "\r\n")
    path = tmp_path / f"{name}.eqn"
    path.write_bytes(crlf.encode())
    m = parse_model(crlf)
    assert m == load_model(path) == parse_model(text)


def _respace(text: str, rng: random.Random) -> str:
    """`text` with spaces and tabs put between its tokens, a comment after
    some lines, and a \\r\\n line end for some."""
    assert not re.search(r"\d[eE][-+]", text)  # a split here would break a literal
    pad = lambda: rng.choice(("", "", " ", "\t", " \t  "))  # noqa: E731
    lines = []
    for line in text.split("\n"):
        pieces = [p for p in re.split(r"([-+*/^()= ])", line) if p]
        line = pad() + "".join(p + pad() for p in pieces)
        if rng.random() < 0.4:
            line += rng.choice(("#", " # note", "\t# y^2 + (", "#@!\t$"))
        lines.append(line + rng.choice(("", "", "\r")))
    return "\n".join(lines)


def _syms(e, out: list) -> list:
    if isinstance(e, Sym):
        out.append(e)
    elif isinstance(e, (Add, Mul)):
        for child in e.terms if isinstance(e, Add) else e.factors:
            _syms(child, out)
    elif isinstance(e, Pow):
        _syms(e.base, out)
    elif isinstance(e, Fun):
        _syms(e.arg, out)
    return out


CHAIN_TEXTS = [
    model_text(make_chain(family, form, n, random.Random(n)))
    for family in FAMILIES for form in FORMS for n in (2, 3)
]
GRAMMAR_TEXTS = [random_model(random.Random(seed)) for seed in range(60)]


@pytest.mark.parametrize("seed", range(len(CHAIN_TEXTS) + len(GRAMMAR_TEXTS)))
def test_layout_invariance_and_shared_symbols(seed):
    text = (CHAIN_TEXTS + GRAMMAR_TEXTS)[seed]
    m = parse_model(text)
    rng = random.Random(seed)
    for _ in range(3):
        assert parse_model(_respace(text, rng)) == m
    syms = [sym for e in m.payload for sym in _syms(e, [])]
    assert syms
    by_name = {}
    for sym in syms:
        assert by_name.setdefault(sym.name, sym) is sym
