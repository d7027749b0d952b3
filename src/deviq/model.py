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
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .bundle import BundleSpec, max_jet_order
from .errors import ParseError, SpecError, UnknownSymbolError
from .expr import (
    FUNCTIONS,
    MAX_CONSTANT_DIGITS,
    MAX_NESTING,
    Expr,
    Fun,
    Pow,
    Rat,
    Sym,
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
_MODEL_KINDS = ("lagrangian", "equation", "hamiltonian")

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#.*)
      | (?P<number>\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+(?:[eE][-+]?\d+)?)
      | (?P<ident>[a-zA-Z][a-zA-Z0-9_]*)
      | (?P<op>[-+*/^()=])
    """,
    re.VERBOSE,
)


class Token(Value):
    _fields = ("kind", "text", "line", "column")  # kind: "number" | "ident" | "op"

    def __init__(self, kind: str, text: str, line: int, column: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)


def _tokenize_line(text: str, line_no: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        kind = m.lastgroup
        if kind == "comment":
            break
        if kind != "ws":
            tokens.append(Token(kind, m.group(), line_no, pos + 1))
        pos = m.end()
    return tokens


def _number(tok: Token) -> Fraction:
    """The exact value of a number token.  One whose numerator or
    denominator could pass MAX_CONSTANT_DIGITS digits is refused before it
    is built: `Fraction("1e10000000")` alone takes seconds."""
    mantissa, _, exponent = tok.text.lower().partition("e")
    if (
        len(tok.text) > MAX_CONSTANT_DIGITS
        or len(mantissa) + abs(int(exponent or 0)) > MAX_CONSTANT_DIGITS
    ):
        raise ParseError(f"number longer than {MAX_CONSTANT_DIGITS} digits", tok.line, tok.column)
    return Fraction(tok.text)


class _ExprParser:
    """Recursive-descent parser over one declaration's token tail.  It
    refuses an expression nested more than MAX_NESTING levels deep."""

    def __init__(self, tokens, spec: BundleSpec, line: int):
        self.tokens = tokens
        self.spec = spec
        self.line = line
        self.pos = 0
        self.depth = 0

    def nested(self, tok: Token, parse) -> Expr:
        """`parse()` one level deeper, in the level that `tok` opens."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"expression nested more than {MAX_NESTING} levels deep", tok.line, tok.column
            )
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            col = last.column + len(last.text) if last else 1
            raise ParseError("unexpected end of expression", self.line, col)
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "op" or tok.text != text:
            if tok is None:
                last = self.tokens[-1] if self.tokens else None
                line = last.line if last else self.line
                col = last.column + len(last.text) if last else 1
                raise ParseError(f"expected '{text}'", line, col)
            raise ParseError(f"expected '{text}', got {tok.text!r}", tok.line, tok.column)
        return self.next()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r} after expression", tok.line, tok.column)
        return e

    def expr(self) -> Expr:
        out = self.term()
        while (tok := self.peek()) and tok.kind == "op" and tok.text in "+-":
            self.next()
            rhs = self.term()
            out = out + rhs if tok.text == "+" else out - rhs
        return out

    def term(self) -> Expr:
        out = self.unary()
        while (tok := self.peek()) and tok.kind == "op" and tok.text in "*/":
            self.next()
            rhs = self.unary()
            out = out * rhs if tok.text == "*" else out / rhs
        return out

    def unary(self) -> Expr:
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text in "+-":
            self.next()
            inner = self.nested(tok, self.unary)
            return inner if tok.text == "+" else -inner
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text == "^":
            self.next()
            exponent = self.nested(tok, self.unary)  # right-associative by recursion
            folded = normalize(exponent)
            if not isinstance(folded, Rat):
                raise ParseError(
                    "exponent of '^' must be a rational constant", tok.line, tok.column
                )
            return Pow(base, folded.value)
        return base

    def group(self) -> Expr:
        """An expression closed by ')', the '(' taken."""
        e = self.expr()
        self.expect_op(")")
        return e

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "number":
            return Rat(_number(tok))
        if tok.kind == "op" and tok.text == "(":
            return self.nested(tok, self.group)
        if tok.kind == "ident":
            nxt = self.peek()
            if nxt and nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{tok.text}'", tok.line, tok.column)
                self.next()
                return Fun(tok.text, self.nested(tok, self.group))
            try:
                return Sym(self.spec.symbol(tok.text))
            except UnknownSymbolError:
                raise ParseError(
                    f"unknown identifier '{tok.text}'", tok.line, tok.column
                ) from None
            except SpecError as ex:
                raise ParseError(str(ex), tok.line, tok.column) from None
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)


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


def _declaration_name(tok: Token, taken: set) -> str:
    name = tok.text
    if "_" in name:
        raise ParseError(
            f"'{name}' collides with the generated coordinate namespace "
            "(underscores are reserved for jet, vertical and momentum names)",
            tok.line,
            tok.column,
        )
    if name in FUNCTIONS:
        raise ParseError(f"'{name}' is a reserved function name", tok.line, tok.column)
    if name in _KEYWORDS:
        raise ParseError(f"'{name}' is a declaration keyword", tok.line, tok.column)
    if name in taken:
        raise ParseError(f"'{name}' is declared twice", tok.line, tok.column)
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
        head = tokens[0]
        if head.kind != "ident" or head.text not in _KEYWORDS:
            raise ParseError(
                f"expected a declaration keyword, got {head.text!r}", head.line, head.column
            )
        rest = tokens[1:]
        if head.text == "base":
            if stage != "base":
                raise ParseError("base must be declared once, first", head.line, head.column)
            if not rest:
                raise ParseError("base needs at least one coordinate", head.line, head.column)
            for tok in rest:
                if tok.kind != "ident":
                    raise ParseError(f"expected an identifier, got {tok.text!r}", tok.line, tok.column)
                base.append(_declaration_name(tok, taken))
            stage = "fibre"
        elif head.text == "fibre":
            if stage != "fibre":
                msg = "missing base declaration" if stage == "base" else "fibre must follow base, once"
                raise ParseError(msg, head.line, head.column)
            if not rest:
                raise ParseError("fibre needs at least one coordinate", head.line, head.column)
            for tok in rest:
                if tok.kind != "ident":
                    raise ParseError(f"expected an identifier, got {tok.text!r}", tok.line, tok.column)
                fibre.append(_declaration_name(tok, taken))
            stage = "params"
        elif head.text == "param":
            if stage == "base" or stage == "fibre":
                raise ParseError("param must follow the fibre declaration", head.line, head.column)
            if stage == "model":
                raise ParseError("param must precede the model declaration", head.line, head.column)
            if not rest or rest[0].kind != "ident":
                raise ParseError("param needs a name", head.line, head.column)
            name = _declaration_name(rest[0], taken)
            params.append(name)
            if len(rest) > 1:
                if rest[1].kind != "op" or rest[1].text != "=":
                    raise ParseError(f"expected '=', got {rest[1].text!r}", rest[1].line, rest[1].column)
                tail = rest[2:]
                sign = 1
                if tail and tail[0].kind == "op" and tail[0].text in "+-":
                    sign = -1 if tail[0].text == "-" else 1
                    tail = tail[1:]
                ok = len(tail) == 1 and tail[0].kind == "number"
                if len(tail) == 3:  # rational literal p/q
                    ok = (
                        tail[0].kind == "number"
                        and tail[1].kind == "op"
                        and tail[1].text == "/"
                        and tail[2].kind == "number"
                    )
                if not ok:
                    where = tail[0] if tail else rest[1]
                    raise ParseError("param value must be a number", where.line, where.column)
                value = _number(tail[0])
                if len(tail) == 3:
                    den = _number(tail[2])
                    if den == 0:
                        raise ParseError("param value divides by zero", tail[2].line, tail[2].column)
                    value = value / den
                values[name] = sign * value
        else:  # model kinds
            if stage == "base":
                raise ParseError("missing base declaration", head.line, head.column)
            if stage == "fibre":
                raise ParseError("missing fibre declaration", head.line, head.column)
            if kind is None:
                kind = head.text
            elif kind != head.text:
                raise ParseError(
                    f"multiple model kinds: '{kind}' and '{head.text}'", head.line, head.column
                )
            elif kind != "equation":
                raise ParseError(f"'{kind}' declared twice", head.line, head.column)
            if not rest:
                raise ParseError(f"{head.text} needs an expression", head.line, head.column)
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

    payload = []
    for line_no, tokens in body:
        payload.append(normalize(_ExprParser(tokens, spec, line_no).parse()))

    allowed = {
        "lagrangian": {SymbolKind.BASE, SymbolKind.FIBRE, SymbolKind.JET, SymbolKind.PARAMETER},
        "equation": {SymbolKind.BASE, SymbolKind.FIBRE, SymbolKind.JET, SymbolKind.PARAMETER},
        "hamiltonian": {SymbolKind.BASE, SymbolKind.FIBRE, SymbolKind.MOMENTUM, SymbolKind.PARAMETER},
    }[kind]
    for (line_no, _), e in zip(body, payload):
        for s in free_symbols(e):
            if s.kind not in allowed:
                raise ParseError(
                    f"'{s.name}' ({s.kind.value}) is not allowed in a {kind}", line_no, 1
                )

    top = max((max_jet_order(e, spec) for e in payload), default=0)
    minimum = {"lagrangian": 2 * top, "equation": top, "hamiltonian": 1}[kind]
    minimum = max(minimum, 1)
    if order is None:
        order = minimum
    elif order < minimum:
        raise ParseError(
            f"--order {order} is below the inferred minimum {minimum} for this model", 1, 1
        )
    try:
        spec = spec.with_order(order)
    except SpecError as ex:
        raise ParseError(str(ex), 1, 1) from None
    return ModelFile(kind, spec, tuple(payload))


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
