"""Immutable symbolic expressions with exact rational arithmetic.

Expressions are trees of `Rat`, `Sym`, `Add`, `Mul`, `Pow` and `Fun` nodes.
`normalize` rewrites any well-formed tree into a fully expanded sum of
monomials (function applications and non-expandable powers are opaque
atoms), so `equivalent` can decide exactly whether two polynomials are equal.
Constants are `fractions.Fraction`, so repeated differentiation never
accumulates floating-point drift.

All values here are immutable and hashable; every operation is a pure
function, so expressions can be shared freely across threads.  A normal
form carries the expansion it was built from, attached once when the node
is made and never changed afterwards, so normalizing it again, or
expanding it for a derivative, costs nothing.  A normal form that is a
sum sorts and builds its terms only when they are first read; it prints
from its expansion, and two such sums compare by their expansions.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Mapping

from .errors import DomainError, ExpansionLimitError, UnboundSymbolError
from .value import Value

__all__ = [
    "Symbol",
    "SymbolKind",
    "Expr",
    "Rat",
    "Sym",
    "Add",
    "Mul",
    "Pow",
    "Fun",
    "FUNCTIONS",
    "as_expr",
    "number",
    "sin",
    "cos",
    "tan",
    "exp",
    "ln",
    "sqrt",
    "normalize",
    "diff",
    "gradient",
    "substitute",
    "evaluate",
    "equivalent",
    "EquivalenceResult",
    "free_symbols",
    "to_text",
]


class SymbolKind(enum.Enum):
    BASE = "base-coordinate"
    FIBRE = "fibre-coordinate"
    JET = "jet-coordinate"
    VERTICAL = "vertical-coordinate"
    MOMENTUM = "momentum"
    VERTICAL_MOMENTUM = "vertical-momentum"
    PARAMETER = "parameter"


#: kinds that behave as dependent variables under total derivatives
DEPENDENT_KINDS = frozenset(
    {
        SymbolKind.FIBRE,
        SymbolKind.JET,
        SymbolKind.VERTICAL,
        SymbolKind.MOMENTUM,
        SymbolKind.VERTICAL_MOMENTUM,
    }
)

#: kinds introduced by the vertical extension
VERTICAL_KINDS = frozenset({SymbolKind.VERTICAL, SymbolKind.VERTICAL_MOMENTUM})


#: sets a field of a new node or symbol past the frozen `__setattr__`
_set = object.__setattr__


class Symbol(Value):
    """A named coordinate or parameter.  Name and kind never change."""

    __slots__ = ("name", "kind", "_hash")
    _fields = ("name", "kind")

    def __init__(self, name: str, kind: SymbolKind):
        _set(self, "name", name)
        _set(self, "kind", kind)
        # a symbol is hashed about 80 times for each one made when the
        # chains derive, and an enum hashes in Python, so the hash is kept
        _set(self, "_hash", hash((name, kind)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # copies and unpickled symbols are made anew: a kept hash holds
        # only in the process that computed it
        return Symbol, (self.name, self.kind)

    def __repr__(self):
        return f"Symbol({self.name!r}, {self.kind.name})"

    def __str__(self):
        return self.name


class Expr(Value):
    """Base class for expression nodes; provides operator sugar.

    Nodes keep their fields in slots, as a derivation makes hundreds of
    thousands of them.  `_expansion` is the polynomial of a node built by
    `_from_poly`, else None.  It takes no part in hashing or repr, nor in
    equality, except that two sums that both carry one compare by it.
    """

    __slots__ = ("_expansion",)

    def __reduce__(self):
        # copies and unpickled nodes are made anew by their constructor: the
        # slots refuse assignment, and a kept hash holds only in one process
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __add__(self, other):
        return Add((self, as_expr(other)))

    def __radd__(self, other):
        return Add((as_expr(other), self))

    def __sub__(self, other):
        return Add((self, Mul((Rat(Fraction(-1)), as_expr(other)))))

    def __rsub__(self, other):
        return Add((as_expr(other), Mul((Rat(Fraction(-1)), self))))

    def __mul__(self, other):
        return Mul((self, as_expr(other)))

    def __rmul__(self, other):
        return Mul((as_expr(other), self))

    def __truediv__(self, other):
        return Mul((self, Pow(as_expr(other), Fraction(-1))))

    def __rtruediv__(self, other):
        return Mul((as_expr(other), Pow(self, Fraction(-1))))

    def __pow__(self, exponent):
        return Pow(self, _as_fraction(exponent))

    def __neg__(self):
        return Mul((Rat(Fraction(-1)), self))

    def __str__(self):
        return to_text(self)


class Rat(Expr):
    """Exact rational constant."""

    __slots__ = ("value",)
    _fields = ("value",)

    def __init__(self, value: Fraction):
        _set(self, "value", value)
        _set(self, "_expansion", None)

    def __repr__(self):
        return f"Rat({self.value})"


class Sym(Expr):
    """Reference to a Symbol.  It keeps its hash and its sort key `_key`,
    `(1, name)`, in slots: a symbol is the commonest atom of a monomial,
    and both are read at every product.  Neither is a field."""

    __slots__ = ("symbol", "_hash", "_k")
    _fields = ("symbol",)

    def __init__(self, symbol: Symbol):
        _set(self, "symbol", symbol)
        _set(self, "_expansion", None)
        _set(self, "_hash", hash((symbol,)))  # kept, like its symbol's
        _set(self, "_k", (1, symbol.name))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Sym({self.symbol.name})"


class Add(Expr):
    """A sum.  One made by `_from_poly` sorts and builds its `terms` when
    they are first read; two that both carry an expansion compare by it.
    The text and LaTeX writers read the expansion; JSON, the compiled code
    (`numeric._emit`), `_key` and `_substitute` read `terms`."""

    __slots__ = ("_terms",)
    _fields = ("terms",)

    def __init__(self, terms: tuple):
        _set(self, "_terms", terms)
        _set(self, "_expansion", None)

    @property
    def terms(self) -> tuple:
        terms = self._terms
        if terms is None:
            p = self._expansion
            terms = tuple(_term(mono, p[mono]) for mono in sorted(p, key=_mono_key))
            _set(self, "_terms", terms)
        return terms

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._expansion is not None and other._expansion is not None:
            return self._expansion == other._expansion
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.terms,))

    def __repr__(self):
        return "Add(" + ", ".join(map(repr, self.terms)) + ")"


class Mul(Expr):
    __slots__ = ("factors",)
    _fields = ("factors",)

    def __init__(self, factors: tuple):
        _set(self, "factors", factors)
        _set(self, "_expansion", None)

    def __repr__(self):
        return "Mul(" + ", ".join(map(repr, self.factors)) + ")"


class Pow(Expr):
    """Power with a literal integer or rational exponent."""

    __slots__ = ("base", "exponent")
    _fields = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Fraction):
        _set(self, "base", base)
        _set(self, "exponent", exponent)
        _set(self, "_expansion", None)

    def __repr__(self):
        return f"Pow({self.base!r}, {self.exponent})"


FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt")


class Fun(Expr):
    """Builtin function application; `name` is one of FUNCTIONS."""

    __slots__ = ("name", "arg", "_hash")
    _fields = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        if name not in FUNCTIONS:
            raise ValueError(f"unknown builtin function '{name}'")
        _set(self, "name", name)
        _set(self, "arg", arg)
        _set(self, "_expansion", None)
        # an atom of many monomials, hashed with them: keep its hash
        _set(self, "_hash", hash((name, arg)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Fun({self.name}, {self.arg!r})"


ZERO = Rat(Fraction(0))
ONE = Rat(Fraction(1))
#: the exponent of a square root: `_poly` reads sqrt(u) as u^(1/2), and text
#: and LaTeX write it back as sqrt
_HALF = Fraction(1, 2)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Rat):
        return x.value
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"exponent must be an integer or rational, got {x!r}")


def as_expr(x) -> Expr:
    """Coerce numbers and Symbols to Expr.  Floats convert exactly."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, Symbol):
        return Sym(x)
    if isinstance(x, (int, Fraction, float)):
        return Rat(Fraction(x))
    raise TypeError(f"cannot convert {x!r} to an expression")


def number(x) -> Rat:
    return Rat(Fraction(x))


def sin(x):
    return Fun("sin", as_expr(x))


def cos(x):
    return Fun("cos", as_expr(x))


def tan(x):
    return Fun("tan", as_expr(x))


def exp(x):
    return Fun("exp", as_expr(x))


def ln(x):
    return Fun("ln", as_expr(x))


def sqrt(x):
    return Fun("sqrt", as_expr(x))


# --------------------------------------------------------------------------
# structural total order, used to sort factors and terms deterministically

def _key(e: Expr):
    """The sort key of `e`: constants, then symbols by name, functions,
    powers, products and sums.  A `Sym` keeps its key, `(1, name)`."""
    if e.__class__ is Sym:
        return e._k
    if isinstance(e, Rat):
        return (0, e.value.numerator, e.value.denominator)
    if isinstance(e, Fun):
        return (2, e.name, _key(e.arg))
    if isinstance(e, Pow):
        return (3, _key(e.base), (e.exponent.numerator, e.exponent.denominator))
    if isinstance(e, Mul):
        return (4, tuple(_key(f) for f in e.factors))
    if isinstance(e, Add):
        return (5, tuple(_key(t) for t in e.terms))
    raise TypeError(f"not an expression node: {e!r}")


# --------------------------------------------------------------------------
# normalization
#
# Internal form: a polynomial maps monomials to coefficients.  A
# coefficient is a reduced (numerator, denominator) pair of ints, the
# denominator positive and the numerator never 0 (a sum that cancels
# deletes its monomial); `_qmul`, `_qadd` and `_qpow` do the arithmetic on
# plain ints, several times faster than `Fraction`'s Python methods.  A
# monomial is a tuple of (atom, exponent) pairs, where atoms are
# canonical non-product expressions (symbols, function applications, or
# powers kept opaque because expanding them would be unsound).  Every
# monomial is sorted by the `_key` of its atoms, no two of its atoms share
# a key and no exponent is 0; `_mono_mul` merges two monomials in one pass
# on that invariant, and every other maker of monomials keeps it.  Whole
# exponents are ints, which hash and add far faster than Fractions; the
# others are Fractions.  A normal form built by `_from_poly` keeps its
# polynomial in `_expansion`; `Fraction`s are made only for the `Rat`
# nodes of the tree, which a sum builds when its terms are first read.

_Poly = dict

#: Exact results are refused with ExpansionLimitError past these sizes.
#: The corpus, the golden models and the FPU and pendulum chains up to
#: N = 16 build constants of at most 3 digits and expand powers of sums
#: to at most 5 terms; `sqrt(1e400)` gives 10^200, 201 digits.  A normal
#: form's constants stay well inside Python's 4300-digit int->str limit,
#: so any output can be printed, and the largest expansion allowed,
#: (y + 1)^499, derives in about 2 s.  A normal form has at most 52 terms
#: on the corpus, 62 on pendulum-16, 244 on FPU-16 and 975 among the 400
#: models of `tests/grammar.py --digest`; nested functions of quotients
#: swell past that (one 150-character model derives 1343 terms, and its
#: deviation system 16k), and a stage refuses them within a second.
MAX_CONSTANT_DIGITS = 1000
MAX_EXPANSION_TERMS = 500
MAX_NORMAL_FORM_TERMS = 1000
_CONSTANT_BOUND = 10**MAX_CONSTANT_DIGITS

#: The model parser refuses with ParseError an expression nested deeper
#: than this; a parenthesis, a function call, a unary sign and the
#: exponent of a `^` each open a level.  Normalization and the
#: derivatives recurse through the tree, so a deep one would pass
#: Python's recursion limit, and the chain rule makes the work of nested
#: functions double about every 10 levels: on cos nested MAX_NESTING
#: deep, `check` takes under 1 s and `simulate` over its default window
#: about 2 s, like the largest expansion, (y + 1)^499.
MAX_NESTING = 35


#: the coefficient 1
_QONE = (1, 1)


def _qmul(a, b):
    """The product of two coefficients."""
    (an, ad), (bn, bd) = a, b
    if ad == 1 and bd == 1:
        return (an * bn, 1)
    g, h = math.gcd(an, bd), math.gcd(bn, ad)
    return ((an // g) * (bn // h), (ad // h) * (bd // g))


def _qadd(a, b):
    """The sum of two coefficients, None when it is zero."""
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        n = an + bn
        if not n:
            return None
        if ad == 1:
            return (n, 1)
        d = ad
    else:
        # reduced values with different denominators never cancel
        n, d = an * bd + bn * ad, ad * bd
    g = math.gcd(n, d)
    return (n // g, d // g)


def _qpow(a, n: int):
    """A coefficient to the power of the int `n`, which may be negative."""
    an, ad = a
    if n >= 0:
        return (an**n, ad**n)
    num, den = ad ** -n, an ** -n
    return (-num, -den) if den < 0 else (num, den)


def _integral(x):
    """A Fraction exponent that is a whole number as an int."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _mono_mul(a, b):
    """The product of two monomials, merged in one pass over both: each is
    sorted by `_key` with distinct keys, and so is the product.  Atoms of
    equal key keep `a`'s object and add their exponents; a pair whose
    exponent becomes 0 is dropped."""
    if not a or not b:
        return a or b
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    ka, kb = _key(a[0][0]), _key(b[0][0])
    while True:
        if ka < kb:
            out.append(a[i])
            i += 1
            if i == na:
                break
            ka = _key(a[i][0])
        elif kb < ka:
            out.append(b[j])
            j += 1
            if j == nb:
                break
            kb = _key(b[j][0])
        else:
            atom, ex = a[i]
            if ex := _integral(ex + b[j][1]):
                out.append((atom, ex))
            i += 1
            j += 1
            if i == na or j == nb:
                break
            ka, kb = _key(a[i][0]), _key(b[j][0])
    return (*out, *a[i:], *b[j:])


def _poly_mul(p: _Poly, q: _Poly, out=None) -> _Poly:
    """p*q, added into `out` when it is given.  A fresh product is refused
    before its next row once it has more than MAX_NORMAL_FORM_TERMS terms;
    terms added into `out` may still cancel, so `out` is not bounded."""
    fresh = out is None
    if fresh:
        out = {}
    for m1, c1 in p.items():
        if fresh and len(out) > MAX_NORMAL_FORM_TERMS:
            raise ExpansionLimitError(
                f"a normal form would have more than {MAX_NORMAL_FORM_TERMS} terms"
            )
        for m2, c2 in q.items():
            mono = _mono_mul(m1, m2)
            c = _qmul(c1, c2)
            # a new monomial takes its coefficient as it is, with no zero
            # made to add it to
            if (s := out.get(mono)) is None:
                out[mono] = c
            elif s := _qadd(s, c):
                out[mono] = s
            else:
                del out[mono]
    return out


def _poly_int_pow(p: _Poly, n: int) -> _Poly:
    result = {(): _QONE}
    square = p
    while n:
        if n & 1:
            result = _poly_mul(result, square)
        n >>= 1
        if n:
            square = _poly_mul(square, square)
    return result


def _atom_poly(atom: Expr, exponent=1) -> _Poly:
    return {((atom, exponent),): _QONE}


def _rational_root(c: Fraction, q: Fraction):
    """Exact value of c**q for rational c, or None when it is irrational."""
    if c < 0:
        return None
    if c == 0:
        return Fraction(0) if q > 0 else None
    rn = _exact_root(c.numerator, q.denominator)
    rd = _exact_root(c.denominator, q.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd) ** q.numerator


def _exact_root(n: int, k: int):
    """The integer k-th root of n >= 1 when it is exact, else None."""
    if k == 2:
        r = math.isqrt(n)
    else:
        # integer Newton iteration, falling from 2^ceil(bits/k) >= n^(1/k)
        r = 1 << -(-n.bit_length() // k)
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
    return r if r**k == n else None


_EXACT_FUN_VALUES = {
    ("sin", Fraction(0)): Fraction(0),
    ("cos", Fraction(0)): Fraction(1),
    ("tan", Fraction(0)): Fraction(0),
    ("exp", Fraction(0)): Fraction(1),
    ("ln", Fraction(1)): Fraction(0),
}


def _rat_poly(r: Fraction) -> _Poly:
    return {(): (r.numerator, r.denominator)} if r else {}


def _poly(e: Expr) -> _Poly:
    """The expansion of `e`.  It may be the one a normal form carries, so
    callers read it and never change it."""
    if e._expansion is not None:
        return e._expansion
    if isinstance(e, Rat):
        return _rat_poly(e.value)
    if isinstance(e, Sym):
        return _atom_poly(e)
    if isinstance(e, (Add, Mul)):
        # nested sums and products (the parser builds a + b + c and a*b*c
        # left-deep) are walked with a stack, not a recursion per level; a
        # sum adds its terms into one dict, so no partial sum is copied
        kind = type(e)
        out: _Poly = {} if kind is Add else {(): _QONE}
        stack = [e]
        while stack:
            t = stack.pop()
            if type(t) is kind and t._expansion is None:
                stack.extend(reversed(t.terms if kind is Add else t.factors))
            elif kind is Mul:
                out = _poly_mul(out, _poly(t))
            else:
                for mono, c in _poly(t).items():
                    if (v := out.get(mono)) is None:
                        out[mono] = c
                    elif v := _qadd(v, c):
                        out[mono] = v
                    else:
                        del out[mono]
        return out
    if isinstance(e, Fun):
        if e.name == "sqrt":
            # one spelling of the square root: sqrt(u) is u^(1/2)
            return _poly(Pow(e.arg, _HALF))
        arg = normalize(e.arg)
        if isinstance(arg, Rat):
            exact = _EXACT_FUN_VALUES.get((e.name, arg.value))
            if exact is not None:
                return _rat_poly(exact)
            if e.name == "ln" and arg.value == 0:
                raise DomainError(e, "logarithm of zero")
        return _atom_poly(e if arg is e.arg else Fun(e.name, arg))
    if isinstance(e, Pow):
        q = e.exponent
        base = _poly(e.base)
        if q == 0:
            # 0**0 follows the polynomial convention and folds to 1
            return {(): _QONE}
        if not base:
            if q < 0:
                raise DomainError(e, "zero raised to a negative power")
            return {}
        _check_power(e, base)
        if len(base) == 1:
            ((mono, coeff),) = base.items()
            if q.denominator == 1:
                n = int(q)
                out_mono = tuple(
                    (atom, _integral(ex * n)) for atom, ex in mono if ex * n != 0
                )
                return {out_mono: _qpow(coeff, n)}
            if not mono:
                c = Fraction(*coeff)
                r = _rational_root(c, q)
                if r is not None:
                    return _rat_poly(r)
                return _atom_poly(Pow(Rat(c), q))
            if coeff == _QONE and len(mono) == 1 and mono[0][1] == 1:
                return _atom_poly(mono[0][0], q)
            return _opaque_pow(e, base)
        if q.denominator == 1 and q > 0:
            return _poly_int_pow(base, int(q))
        return _opaque_pow(e, base)
    raise TypeError(f"not an expression node: {e!r}")


def _check_power(e: Pow, base: _Poly) -> None:
    """Refuse `e`, whose base expands to `base`, before it is computed:
    its exponent, or a constant of its result, would pass
    MAX_CONSTANT_DIGITS digits, or its expansion MAX_EXPANSION_TERMS terms."""
    num, den = abs(e.exponent.numerator), e.exponent.denominator
    if max(num, den) >= _CONSTANT_BOUND:
        raise ExpansionLimitError(f"an exponent is longer than {MAX_CONSTANT_DIGITS} digits")
    k = len(base)
    if k == 1:
        ((mono, c),) = base.items()
        if den != 1 and mono:
            return  # an opaque atom or a symbol's exponent: nothing is computed
        for _, ex in mono:
            if abs(ex.numerator) * num >= _CONSTANT_BOUND:
                raise ExpansionLimitError(
                    f"a power would build an exponent longer than {MAX_CONSTANT_DIGITS} digits"
                )
        size = max(abs(c[0]), c[1])
    elif den != 1 or e.exponent < 0:
        return  # an opaque atom: nothing is expanded
    else:
        # (t_1 + ... + t_k)^n has at most C(n + k - 1, k - 1) terms
        n, m = max(num, k - 1), min(num, k - 1)
        terms = 1
        for i in range(1, m + 1):
            terms = terms * (n + i) // i
            if terms > MAX_EXPANSION_TERMS:
                raise ExpansionLimitError(
                    f"'{e}' would expand to more than {MAX_EXPANSION_TERMS} terms"
                )
        size = k * max(max(abs(n), d) for n, d in base.values())
    # a numerator or denominator of the result is at most size^(num/den),
    # with size = k times the largest numerator or denominator of `base`
    if size > 1 and (
        math.log10(num) + math.log10(math.log10(size)) > math.log10(MAX_CONSTANT_DIGITS * den)
    ):
        raise ExpansionLimitError(
            f"'{e}' would build a constant longer than {MAX_CONSTANT_DIGITS} digits"
        )


def _opaque_pow(e: Pow, base: _Poly) -> _Poly:
    """`e` over an atom, its base in normal form.  An integer power is an
    atom; b^(p/d) is the p-th power of the atom b^(1/d), so that every
    power of b over one denominator, and sqrt(b), shares one atom."""
    q = e.exponent
    root, p = (q, 1) if q.denominator == 1 else (Fraction(1, q.denominator), q.numerator)
    if e.base._expansion is base and q == root:
        return _atom_poly(e)
    return _atom_poly(Pow(_from_poly(base), root), p)


def _from_poly(p: _Poly) -> Expr:
    """The normal form of `p`.  A node made here carries `p`, which must
    not be changed afterwards; an atom handed back as it is carries
    nothing.  A sum is made without its terms: most normal forms are only
    expanded again or printed, and `Add.terms` builds them when first read."""
    if len(p) > MAX_NORMAL_FORM_TERMS:
        raise ExpansionLimitError(
            f"a normal form would have {len(p)} terms, more than {MAX_NORMAL_FORM_TERMS}"
        )
    for num, den in p.values():
        if not (-_CONSTANT_BOUND < num < _CONSTANT_BOUND and den < _CONSTANT_BOUND):
            raise ExpansionLimitError(
                f"a normal form would hold a constant longer than {MAX_CONSTANT_DIGITS} digits"
            )
    if len(p) > 1:
        e = Add(None)
    elif p:
        ((mono, coeff),) = p.items()
        e = _term(mono, coeff)
        if mono and e is mono[0][0]:
            return e  # the atom of p's one monomial, which others share
    else:
        return ZERO
    _set(e, "_expansion", p)
    return e


def _mono_key(mono) -> tuple:
    """The sort key of a monomial among the terms of a sum."""
    return tuple((_key(a), (x.numerator, x.denominator)) for a, x in mono)


def _term(mono, coeff) -> Expr:
    """The term of one monomial with its coefficient."""
    factors = tuple(atom if ex == 1 else Pow(atom, Fraction(ex)) for atom, ex in mono)
    if coeff != _QONE or not factors:
        factors = (Rat(Fraction(*coeff)), *factors)
    return factors[0] if len(factors) == 1 else Mul(factors)


def normalize(e: Expr) -> Expr:
    """Rewrite `e` into the canonical expanded normal form.

    Idempotent; preserves the value of `e` at every evaluation point.
    Sums are flattened and sorted, like terms merged, numeric constants
    folded, and products distributed over sums.  Function applications
    and powers that cannot be expanded soundly stay opaque atoms.  A
    normal form, a constant and a symbol are returned as they are.
    """
    e = as_expr(e)
    if e._expansion is not None or isinstance(e, (Rat, Sym)):
        return e
    return _from_poly(_poly(e))


# --------------------------------------------------------------------------
# differentiation
#
# Every derivative is taken on the expanded polynomial, so an expression
# is expanded once however many partials are wanted.  A symbol atom's
# exponent drops by one; an opaque atom (function application or
# unexpandable power) goes through the chain rule: its outer derivative
# times the partials of its argument, taken by the same rule on the
# argument's expansion.

def _poly_symbols(p: _Poly) -> set:
    # an opaque atom is walked at each occurrence: remembering the ones seen
    # would hash them, and hashing an atom walks its whole tree too
    out = set()
    for mono in p:
        for atom, _ in mono:
            if isinstance(atom, Sym):
                out.add(atom.symbol)
            else:
                _collect_symbols(atom, out)
    return out


#: the derivative of each function atom f(u) with respect to u, as a tree in
#: u; sqrt is never an atom, as `_poly` reads sqrt(u) as u^(1/2)
_OUTER = {
    "sin": lambda u: Fun("cos", u),
    "cos": lambda u: -Fun("sin", u),
    "tan": lambda u: 1 + Fun("tan", u) ** 2,
    "exp": lambda u: Fun("exp", u),
    "ln": lambda u: u**-1,
}


def _atom_partials(atom: Expr, symbols) -> tuple:
    """((s, d atom/ds), ...) for each s in `symbols` on which the opaque
    atom depends: its outer derivative times the partials of its argument,
    all taken in one pass over the argument's expansion."""
    if isinstance(atom, Pow):
        u, q = atom.base, atom.exponent
        outer = Mul((Rat(q), Pow(u, q - 1)))
    else:
        u = atom.arg
        outer = _OUTER[atom.name](u)
    inner = _partials(_poly(u), symbols)
    if not inner:
        return ()
    outer = _poly(outer)
    return tuple((s, _poly_mul(outer, du)) for s, du in inner.items())


def _partials(p: _Poly, symbols) -> dict:
    """{s: dp/ds} for each s in `symbols` whose partial is not zero, in
    one pass over the terms of `p`."""
    out = {}
    atom_partials = {}  # opaque atom -> its partials, within this pass only
    for mono, c in p.items():
        for i, (atom, ex) in enumerate(mono):
            if isinstance(atom, Sym):
                if atom.symbol not in symbols:
                    continue
                inner = ((atom.symbol, None),)
            else:
                inner = atom_partials.get(atom)
                if inner is None:
                    inner = atom_partials[atom] = _atom_partials(atom, symbols)
            if not inner:
                continue
            rest = mono[i + 1 :] if ex == 1 else ((atom, ex - 1), *mono[i + 1 :])
            lowered = mono[:i] + rest
            k = _qmul(c, (ex.numerator, ex.denominator))
            for s, dp in inner:
                acc = out.setdefault(s, {})
                if dp is not None:
                    _poly_mul({lowered: k}, dp, acc)
                elif (v := acc.get(lowered)) is None:
                    acc[lowered] = k
                elif v := _qadd(v, k):
                    acc[lowered] = v
                else:
                    del acc[lowered]
    return {s: d for s, d in out.items() if d}


def derivation(e: Expr, wanted, weight) -> Expr:
    """The derivation sum_s weight(s) * de/ds, expanding `e` once.

    `wanted(s)` is asked for every symbol of the normal form of `e`, in
    name order, and may raise to refuse `e`.  The sum runs over the
    wanted symbols whose partial is not zero; `weight(s)` gives their
    weights as expressions, in name order, and is asked for no other
    symbol, so it may raise for symbols that do not contribute.
    """
    p = _poly(as_expr(e))
    chosen = {s for s in sorted(_poly_symbols(p), key=lambda s: s.name) if wanted(s)}
    parts = _partials(p, chosen)
    out: _Poly = {}
    for s in sorted(parts, key=lambda s: s.name):
        _poly_mul(_poly(as_expr(weight(s))), parts[s], out)
    return _from_poly(out)


def diff(e: Expr, s: Symbol) -> Expr:
    """Partial derivative of `e` with respect to `s`; every other symbol is
    treated as independent."""
    (d,) = gradient(e, (s,)).values()
    return d


def gradient(e: Expr, symbols) -> dict:
    """{s: diff(e, s)} for every symbol in `symbols`, expanding `e` once."""
    symbols = [s.symbol if isinstance(s, Sym) else s for s in symbols]
    parts = _partials(_poly(as_expr(e)), set(symbols))
    return {s: _from_poly(parts.get(s, {})) for s in symbols}


# --------------------------------------------------------------------------
# substitution and evaluation

def substitute(e: Expr, bindings: Mapping[Symbol, object]) -> Expr:
    """Simultaneous substitution of symbols by expressions; result normalized.

    All replacements refer to the original expression: swapping two
    symbols through `bindings` exchanges them rather than chaining.  When
    no bound symbol occurs in `e`, this is `normalize(e)`, found without
    rebuilding the tree.
    """
    table = {}
    for k, v in bindings.items():
        if isinstance(k, Sym):
            k = k.symbol
        table[k] = as_expr(v)
    e = as_expr(e)
    if not table or table.keys().isdisjoint(free_symbols(e)):
        return normalize(e)
    return normalize(_substitute(e, table))


def _substitute(e: Expr, table) -> Expr:
    """`e` with the symbols of `table` replaced; a subtree holding none of
    them comes back as the same object, stored expansion included."""
    if isinstance(e, Rat):
        return e
    if isinstance(e, Sym):
        return table.get(e.symbol, e)
    if isinstance(e, (Add, Mul)):
        old = e.terms if isinstance(e, Add) else e.factors
        new = tuple(_substitute(t, table) for t in old)
        return e if all(a is b for a, b in zip(new, old)) else type(e)(new)
    if isinstance(e, Pow):
        base = _substitute(e.base, table)
        return e if base is e.base else Pow(base, e.exponent)
    if isinstance(e, Fun):
        arg = _substitute(e.arg, table)
        return e if arg is e.arg else Fun(e.name, arg)
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, point: Mapping[Symbol, float]) -> float:
    """IEEE double evaluation of `e` with every symbol bound by `point`.

    Raises UnboundSymbolError for missing symbols and DomainError (carrying
    the offending subexpression) for log of non-positive values, division
    by zero, fractional powers of negatives, and overflow.
    """
    table = {}
    for k, v in point.items():
        if isinstance(k, Sym):
            k = k.symbol
        table[k.name if isinstance(k, Symbol) else k] = float(v)
    return _eval(as_expr(e), table)


def _eval(e: Expr, point) -> float:
    if isinstance(e, Rat):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return point[e.symbol.name]
        except KeyError:
            raise UnboundSymbolError(e.symbol.name) from None
    if isinstance(e, Add):
        return math.fsum(_eval(t, point) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= _eval(f, point)
        return out
    if isinstance(e, Pow):
        b = _eval(e.base, point)
        q = e.exponent
        try:
            if q.denominator == 1:
                return _check_finite(e, b ** int(q))
            return _check_finite(e, math.pow(b, float(q)))
        except ZeroDivisionError:
            raise DomainError(e, "division by zero") from None
        except ValueError:
            raise DomainError(e, "fractional power of a negative value") from None
        except OverflowError:
            raise DomainError(e, "overflow") from None
    if isinstance(e, Fun):
        x = _eval(e.arg, point)
        try:
            if e.name == "sin":
                return math.sin(x)
            if e.name == "cos":
                return math.cos(x)
            if e.name == "tan":
                return math.tan(x)
            if e.name == "exp":
                return _check_finite(e, math.exp(x))
            if e.name == "ln":
                if x <= 0.0:
                    raise DomainError(e, "logarithm of a non-positive value")
                return math.log(x)
            if e.name == "sqrt":
                if x < 0.0:
                    raise DomainError(e, "square root of a negative value")
                return math.sqrt(x)
        except OverflowError:
            raise DomainError(e, "overflow") from None
    raise TypeError(f"not an expression node: {e!r}")


def _check_finite(e, v):
    if isinstance(v, complex) or not math.isfinite(v):
        raise DomainError(e, "non-finite result")
    return v


def free_symbols(e: Expr) -> frozenset:
    e = as_expr(e)
    if e._expansion is not None:
        # a normal form's atoms are its polynomial's
        return frozenset(_poly_symbols(e._expansion))
    out = set()
    _collect_symbols(e, out)
    return frozenset(out)


def _collect_symbols(e, out):
    if isinstance(e, Sym):
        out.add(e.symbol)
    elif isinstance(e, Add):
        for t in e.terms:
            _collect_symbols(t, out)
    elif isinstance(e, Mul):
        for f in e.factors:
            _collect_symbols(f, out)
    elif isinstance(e, Pow):
        _collect_symbols(e.base, out)
    elif isinstance(e, Fun):
        _collect_symbols(e.arg, out)


# --------------------------------------------------------------------------
# equivalence testing

class EquivalenceResult(Value):
    """Outcome of `equivalent`: 'equal' or 'different', with its reason.
    Truthy exactly when the verdict is 'equal'."""

    _fields = ("verdict", "reason")

    def __init__(self, verdict: str, reason: str):
        _set(self, "verdict", verdict)
        _set(self, "reason", reason)

    def __bool__(self):
        return self.verdict == "equal"

    def __str__(self):
        return f"{self.verdict} ({self.reason})"


def equivalent(a: Expr, b: Expr) -> EquivalenceResult:
    """Decide exactly whether `a` and `b` have the same normal form; if not,
    name the term count of their difference.  An identity the normal form
    does not see, such as sin(y)^2 + cos(y)^2 = 1, is 'different'."""
    a, b = normalize(a), normalize(b)
    if a == b:
        return EquivalenceResult("equal", "normal forms coincide")
    # the difference is counted, not made a normal form, so no cap applies
    terms = len(_poly(a - b))
    return EquivalenceResult("different", f"normal forms differ by {terms} terms")


# --------------------------------------------------------------------------
# plain-text rendering (round-trips through the model-file parser)
#
# Text and LaTeX share one term writer, `_split_term`, over an int-pair
# coefficient and (atom, exponent) factors.  A normal form is written from
# its expansion, building no term nodes and no `Fraction`s; a node without
# one is read as its factors.

def to_text(e: Expr) -> str:
    return _join_terms(as_expr(e), _term_text)


def _join_terms(e: Expr, term) -> str:
    """A sum as its terms written by `term(pairs, coeff)`, a term's leading
    minus written as the joining ' - '.  An expansion is read in the order
    of `Add.terms`; a monomial's atom that is a power passes its base and
    exponent, as its tree would, so `1/(y + 1)` goes to the denominator."""
    p = e._expansion
    if p is None:
        terms = map(_tree_term, e.terms if isinstance(e, Add) else (e,))
    else:
        terms = (([(a.base, a.exponent) if x == 1 and type(a) is Pow else (a, x) for a, x in m],
                  p[m]) for m in sorted(p, key=_mono_key))
    parts = [term(pairs, coeff) for pairs, coeff in terms]
    return parts[0] + "".join(" - " + s[1:] if s[0] == "-" else " + " + s for s in parts[1:])


def _tree_term(e: Expr) -> tuple:
    """A term as (pairs, coeff): its `Rat` factors make the coefficient,
    `Pow(b, q)` gives (b, q), any other factor f gives (f, 1)."""
    coeff, pairs = _QONE, []
    for f in e.factors if isinstance(e, Mul) else (e,):
        if isinstance(f, Rat):
            coeff = _qmul(coeff, (f.value.numerator, f.value.denominator))
        elif isinstance(f, Pow):
            pairs.append((f.base, f.exponent))
        else:
            pairs.append((f, 1))
    return pairs, coeff


def _split_term(pairs, coeff, factor) -> tuple:
    """One term as (sign, numerator, denominator): the (atom, exponent)
    pairs written by `factor(atom, exponent)`, a negative exponent
    inverted into the denominator, and the digits of the reduced int-pair
    coefficient leading each list where needed."""
    numer, denom = [], []
    for atom, x in pairs:
        if x < 0:
            denom.append(factor(atom, -x))
        else:
            numer.append(factor(atom, x))
    num, den = coeff
    sign = "-" if num < 0 else ""
    if abs(num) != 1 or not numer:
        numer.insert(0, str(abs(num)))
    if den != 1:
        denom.insert(0, str(den))
    return sign, numer, denom


def _term_text(pairs, coeff) -> str:
    sign, numer, denom = _split_term(pairs, coeff, _pow_text)
    top = "*".join(numer)
    if not denom:
        return sign + top
    bottom = "*".join(denom)
    if len(denom) > 1:
        bottom = "(" + bottom + ")"
    return f"{sign}{top}/{bottom}"


def _pow_text(atom: Expr, q) -> str:
    if q == 1:
        return _atom_text(atom)
    if q == _HALF:
        return f"sqrt({to_text(atom)})"
    base = _atom_text(atom)
    if q.denominator == 1 and q >= 0:
        return f"{base}^{q.numerator}"
    if q.denominator == 1:
        return f"{base}^({q.numerator})"
    return f"{base}^({q.numerator}/{q.denominator})"


def _atom_text(e: Expr) -> str:
    if isinstance(e, Rat):
        if e.value.denominator == 1 and e.value >= 0:
            return str(e.value.numerator)
        if e.value.denominator == 1:
            return f"({e.value.numerator})"
        return f"({e.value.numerator}/{e.value.denominator})"
    if isinstance(e, Sym):
        return e.symbol.name
    if isinstance(e, Fun):
        return f"{e.name}({to_text(e.arg)})"
    if isinstance(e, Pow) and e.exponent == _HALF:
        return f"sqrt({to_text(e.base)})"
    return "(" + to_text(e) + ")"
