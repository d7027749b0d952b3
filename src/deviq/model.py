"""Model-file parser: a small line-oriented DSL for variational models.

A model file declares, in order,

    base t              one line, one or more base coordinates
    fibre y             one or more fibre coordinates
    param omega = 1     zero or more parameters, optionally bound
    lagrangian <expr>   exactly one model kind:
    equation <expr>     lagrangian, hamiltonian, or repeatable equations
    hamiltonian <expr>

`#` starts a comment.  Expressions use + - * / ^ with parentheses and
the builtin functions sin cos tan exp ln sqrt; `^` is right-associative
and its exponent must be a rational constant.  Jet coordinates follow
the generated naming scheme (y_t, y_tt, u_xt); Hamiltonian densities
refer to momenta as pt_y etc.

Identifiers in declarations must not contain underscores: every
underscore name belongs to the generated jet/vertical/momentum
namespace, and claiming one is reported as a collision.

Reading is one pass.  The text is split at "\n" only, and one regular
expression reads each line into (kind, text, line, column) tuples;
spaces, tabs, a comment and the "\r" of a "\r\n" line end give no token.
The expression parser reads a declaration's tokens by index, and looks
each distinct name up in the spec once per model.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .bundle import BundleSpec
from .errors import ParseError, SpecError, UnknownSymbolError
from .expr import (
    DEPENDENT_KINDS,
    FUNCTIONS,
    MAX_CONSTANT_DIGITS,
    MAX_NESTING,
    Add,
    Expr,
    Fun,
    Mul,
    Pow,
    Rat,
    SymbolKind,
    free_symbols,
    normalize,
)
from .hamiltonian import HamiltonianSystem, check_hamilton_deviation_commute, hamilton_equations
from .value import Value
from .variational import (
    CommutationReport,
    EquationSystem,
    Lagrangian,
    check_el_vertical_commute,
    deviation_system,
    euler_lagrange,
)

__all__ = [
    "ModelFile",
    "parse_model",
    "load_model",
    "derive_equations",
    "deviation_equations",
    "check_model",
]

_KEYWORDS = ("base", "fibre", "param", "lagrangian", "equation", "hamiltonian")
#: the symbol kinds each model kind may use
_ALLOWED = {
    "lagrangian": {SymbolKind.BASE, SymbolKind.FIBRE, SymbolKind.JET, SymbolKind.PARAMETER},
    "equation": {SymbolKind.BASE, SymbolKind.FIBRE, SymbolKind.JET, SymbolKind.PARAMETER},
    "hamiltonian": {SymbolKind.BASE, SymbolKind.FIBRE, SymbolKind.MOMENTUM, SymbolKind.PARAMETER},
}

# One match per token; spaces and tabs between tokens are skipped by the
# search.  A comment, or the \r of a \r\n line end, matches without a kind.
_TOKEN_RE = re.compile(
    r"""(?P<number>\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+(?:[eE][-+]?\d+)?)
      | (?P<ident>[a-zA-Z][a-zA-Z0-9_]*)
      | (?P<op>[-+*/^()=])
      | \#.* | \r\Z
      | (?P<bad>[^ \t])
    """,
    re.VERBOSE | re.ASCII,  # a digit is 0-9, not any Unicode decimal digit
)


def _tokenize_line(text: str, line_no: int) -> list:
    """The tokens of one line, as (kind, text, line, column) tuples with
    kind "number", "ident" or "op"."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", line_no, m.start() + 1)
        tokens.append((kind, m[0], line_no, m.start() + 1))
    return tokens


def _number(tok) -> Fraction:
    """The exact value of a number token.  One whose numerator or
    denominator could pass MAX_CONSTANT_DIGITS digits is refused before it
    is built: `Fraction("1e10000000")` alone takes seconds."""
    text = tok[1]
    if len(text) <= MAX_CONSTANT_DIGITS:
        if text.isdecimal():
            return Fraction(int(text))
        mantissa, _, exponent = text.lower().partition("e")
        if len(mantissa) + abs(int(exponent or 0)) <= MAX_CONSTANT_DIGITS:
            return Fraction(text)
    raise ParseError(f"number longer than {MAX_CONSTANT_DIGITS} digits", tok[2], tok[3])


class _ExprParser:
    """Recursive-descent parser for the expressions of one model.  It reads
    a declaration's token tail by index, up to the "end" token that closes
    it, and refuses an expression nested more than MAX_NESTING levels
    deep.  Each distinct name is looked up in the spec once, and all its
    occurrences share one Sym."""

    def __init__(self, spec: BundleSpec):
        self.spec = spec
        self.symbols = {}

    def parse(self, tokens: list) -> Expr:
        _, text, line, column = tokens[-1]
        self.tokens = [*tokens, ("end", "", line, column + len(text))]
        self.pos = 0
        self.depth = 0
        e = self.expr()
        kind, text, line, column = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected {text!r} after expression", line, column)
        return e

    def nested(self, tok, parse) -> Expr:
        """`parse()` one level deeper, in the level that `tok` opens."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"expression nested more than {MAX_NESTING} levels deep", tok[2], tok[3]
            )
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def expr(self) -> Expr:
        """A chain of terms joined by '+' and '-', made one sum."""
        terms = [self.term()]
        while (op := self.tokens[self.pos][1]) == "+" or op == "-":
            self.pos += 1
            terms.append(self.term() if op == "+" else -self.term())
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term(self) -> Expr:
        """A chain of factors joined by '*' and '/', made one product."""
        factors = [self.unary()]
        while (op := self.tokens[self.pos][1]) == "*" or op == "/":
            self.pos += 1
            factors.append(self.unary() if op == "*" else self.unary() ** -1)
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok[1] == "-" or tok[1] == "+":
            self.pos += 1
            inner = self.nested(tok, self.unary)
            return inner if tok[1] == "+" else -inner
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.tokens[self.pos]
        if tok[1] != "^":
            return base
        self.pos += 1
        exponent = self.nested(tok, self.unary)  # right-associative by recursion
        folded = normalize(exponent)
        if not isinstance(folded, Rat):
            raise ParseError("exponent of '^' must be a rational constant", tok[2], tok[3])
        return Pow(base, folded.value)

    def group(self) -> Expr:
        """An expression closed by ')', the '(' taken."""
        e = self.expr()
        kind, text, line, column = self.tokens[self.pos]
        if text != ")":
            got = "" if kind == "end" else f", got {text!r}"
            raise ParseError(f"expected ')'{got}", line, column)
        self.pos += 1
        return e

    def atom(self) -> Expr:
        tok = self.tokens[self.pos]
        kind, text, line, column = tok
        if kind == "end":
            raise ParseError("unexpected end of expression", line, column)
        self.pos += 1
        if kind == "number":
            return Rat(_number(tok))
        if kind == "ident":
            if self.tokens[self.pos][1] == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{text}'", line, column)
                self.pos += 1
                return Fun(text, self.nested(tok, self.group))
            sym = self.symbols.get(text)
            if sym is None:
                try:
                    sym = self.symbols[text] = self.spec.symbol(text)
                except UnknownSymbolError:
                    raise ParseError(f"unknown identifier '{text}'", line, column) from None
                except SpecError as ex:
                    raise ParseError(str(ex), line, column) from None
            return sym
        if text == "(":
            return self.nested(tok, self.group)
        raise ParseError(f"unexpected {text!r}", line, column)


class ModelFile(Value):
    """A parsed model: its kind, the fully resolved spec, and the payload
    expressions (one density, or the equation components in order)."""

    _fields = ("kind", "spec", "payload")

    def __init__(self, kind: str, spec: BundleSpec, payload: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "payload", payload)

    def lagrangian(self) -> Lagrangian:
        if self.kind != "lagrangian":
            raise SpecError(f"model is a {self.kind}, not a lagrangian")
        return Lagrangian(self.payload[0], self.spec)

    def hamiltonian(self) -> HamiltonianSystem:
        if self.kind != "hamiltonian":
            raise SpecError(f"model is a {self.kind}, not a hamiltonian")
        return HamiltonianSystem(self.payload[0], self.spec)


def _declaration_name(tok, taken: set) -> str:
    _, name, line, column = tok
    if "_" in name:
        raise ParseError(
            f"'{name}' collides with the generated coordinate namespace "
            "(underscores are reserved for jet, vertical and momentum names)",
            line,
            column,
        )
    if name in FUNCTIONS:
        raise ParseError(f"'{name}' is a reserved function name", line, column)
    if name in _KEYWORDS:
        raise ParseError(f"'{name}' is a declaration keyword", line, column)
    if name in taken:
        raise ParseError(f"'{name}' is declared twice", line, column)
    taken.add(name)
    return name


def parse_model(text: str, order: Optional[int] = None) -> ModelFile:
    """Parse a model file into a ModelFile with a fully resolved spec.

    The tracked jet order is inferred (2k for an order-k Lagrangian, the
    highest occurring order for equations, 1 for a Hamiltonian) unless
    `order` overrides it; an override below the inferred minimum is an
    error.
    """
    base, fibre, params = [], [], []
    values = {}
    taken = set()
    kind = None
    body = []  # (line_no, tokens) per model expression
    stage = "base"  # base -> fibre -> params -> model

    for line_no, raw in enumerate(text.split("\n"), start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        head_kind, head, *at = tokens[0]  # at: its line and column
        rest = tokens[1:]
        if head_kind != "ident" or head not in _KEYWORDS:
            raise ParseError(f"expected a declaration keyword, got {head!r}", *at)
        if head == "base" or head == "fibre":
            if stage != head:
                raise ParseError(
                    "base must be declared once, first" if head == "base"
                    else "missing base declaration" if stage == "base"
                    else "fibre must follow base, once", *at)
            if not rest:
                raise ParseError(f"{head} needs at least one coordinate", *at)
            names = base if head == "base" else fibre
            for tok in rest:
                if tok[0] != "ident":
                    raise ParseError(f"expected an identifier, got {tok[1]!r}", *tok[2:])
                names.append(_declaration_name(tok, taken))
            stage = "fibre" if head == "base" else "params"
        elif head == "param":
            if stage == "base" or stage == "fibre":
                raise ParseError("param must follow the fibre declaration", *at)
            if stage == "model":
                raise ParseError("param must precede the model declaration", *at)
            if not rest or rest[0][0] != "ident":
                raise ParseError("param needs a name", *at)
            name = _declaration_name(rest[0], taken)
            params.append(name)
            if len(rest) > 1:
                if rest[1][1] != "=":
                    raise ParseError(f"expected '=', got {rest[1][1]!r}", *rest[1][2:])
                tail = rest[2:]
                sign = 1
                if tail and (tail[0][1] == "+" or tail[0][1] == "-"):
                    sign = -1 if tail[0][1] == "-" else 1
                    tail = tail[1:]
                # a number, or a rational literal p/q
                shape = [tok[1] if tok[0] == "op" else tok[0] for tok in tail]
                if shape != ["number"] and shape != ["number", "/", "number"]:
                    where = tail[0] if tail else rest[1]
                    raise ParseError("param value must be a number", *where[2:])
                value = _number(tail[0])
                if len(tail) == 3:
                    den = _number(tail[2])
                    if den == 0:
                        raise ParseError("param value divides by zero", *tail[2][2:])
                    value = value / den
                values[name] = sign * value
        else:  # model kinds
            if stage == "base":
                raise ParseError("missing base declaration", *at)
            if stage == "fibre":
                raise ParseError("missing fibre declaration", *at)
            if kind is None:
                kind = head
            elif kind != head:
                raise ParseError(f"multiple model kinds: '{kind}' and '{head}'", *at)
            elif kind != "equation":
                raise ParseError(f"'{kind}' declared twice", *at)
            if not rest:
                raise ParseError(f"{head} needs an expression", *at)
            body.append((line_no, rest))
            stage = "model"

    if not base:
        raise ParseError("missing base declaration", 1, 1)
    if not fibre:
        raise ParseError("missing fibre declaration", 1, 1)
    if kind is None:
        raise ParseError("missing model declaration (lagrangian, equation, or hamiltonian)", 1, 1)

    try:
        spec = BundleSpec.make(
            base, fibre, params, order=1, values=values, momenta=(kind == "hamiltonian")
        )
    except SpecError as ex:
        raise ParseError(str(ex), 1, 1) from None

    parser = _ExprParser(spec)
    payload = tuple(normalize(parser.parse(tokens)) for _, tokens in body)
    top = 0
    for (line_no, tokens), e in zip(body, payload):
        for s in sorted(free_symbols(e), key=lambda s: s.name):  # the same report in every run
            if s.kind not in _ALLOWED[kind]:
                # by symbol, not text: y_xt and y_tx name one symbol
                column = next(
                    tok[3] for tok in tokens
                    if parser.symbols.get(tok[1]) == s
                )
                raise ParseError(
                    f"'{s.name}' ({s.kind.value}) is not allowed in a {kind}", line_no, column
                )
            if s.kind in DEPENDENT_KINDS:
                top = max(top, spec.jet_order(s))
    minimum = {"lagrangian": 2 * top, "equation": top, "hamiltonian": 1}[kind]
    minimum = max(minimum, 1)
    # no one place in the text sets the order, so its refusals give no position
    if order is None:
        order = minimum
    elif order < minimum:
        raise ParseError(f"--order {order} is below the inferred minimum {minimum} for this model")
    try:
        spec = spec.with_order(order)
    except SpecError as ex:
        raise ParseError(str(ex)) from None
    return ModelFile(kind, spec, payload)


def load_model(path, order: Optional[int] = None) -> ModelFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as ex:
            raise ParseError(f"{path}: not UTF-8 text ({ex.reason} at byte {ex.start})") from None
    return parse_model(text, order=order)


def derive_equations(model: ModelFile) -> EquationSystem:
    """The equations of motion: Euler-Lagrange components, covariant
    Hamilton equations, or the declared equations themselves."""
    if model.kind == "lagrangian":
        return euler_lagrange(model.lagrangian())
    if model.kind == "hamiltonian":
        return hamilton_equations(model.hamiltonian())
    return EquationSystem(model.payload, model.spec)


def deviation_equations(model: ModelFile) -> EquationSystem:
    """The deviation pair of the model's equations of motion."""
    return deviation_system(derive_equations(model))


def check_model(model: ModelFile) -> CommutationReport:
    """Run the commutation theorem applicable to the model kind."""
    if model.kind == "lagrangian":
        return check_el_vertical_commute(model.lagrangian())
    if model.kind == "hamiltonian":
        return check_hamilton_deviation_commute(model.hamiltonian())
    raise SpecError("equation models state no theorem to check; use derive or deviate")
