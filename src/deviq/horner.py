"""The forms the code generator writes.

`_horner` rewrites each normal-form sum of the expressions it is given,
at any depth, first over differences of state variables and then into
greedy multivariate Horner form, and `numeric._emit` writes the result.
`numeric` imports this module where it first makes forms, for a compiled
system's right-hand side, a residual's equations or `numpy_eval`, so a
process that only derives, checks or compiles systems never reads it.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .expr import (
    _QONE,
    Add,
    Expr,
    Fun,
    Mul,
    Pow,
    Sym,
    _key,
    _mono_key,
    _poly_int_pow,
    _poly_mul,
    _qadd,
    _qmul,
    _term,
)

#: `_horner` factors at most this many atoms along any path of a form, and
#: writes a sum past that as its terms.  Each factor nests the form two
#: levels deeper, and a difference two more where it stands for a symbol,
#: so a form is at most 2 * _HORNER_DEPTH + 2 levels deeper than the
#: expanded sum: Python's parser refuses text nested more than 200
#: parentheses deep, and (y + 1)^120 fully factored would be 240.  The FPU
#: and pendulum chains factor at most 3 deep, the ODE corpus 2 and the
#: first 300 compiling models of `tests/grammar.py` (`random.Random(5)`) 21.
_HORNER_DEPTH = 24

#: `_horner` eliminates a symbol in favour of a difference only where its
#: exponents are whole and at most this.  Each x^k becomes the k + 1 terms
#: of (y - d)^k, so a high power swells the sum while it is tried: on
#: (u - y)^499, whose right-hand sides hold u and y to the 498th power, the
#: search ran for minutes, and takes 0.2 s with the bound.  4 is the degree
#: of the FPU chains' spring energies, which no right-hand side exceeds.
_DIFFERENCE_POWER = 4
#: _BINOMIAL[k][i] is k choose i
_BINOMIAL = tuple(tuple(math.comb(k, i) for i in range(k + 1)) for k in range(_DIFFERENCE_POWER + 1))


def _difference_counts(rows, a: Sym, b: Sym, which: tuple) -> tuple:
    """The term counts of a sum once a = b - d and once b = a + d, for a
    fresh d, or None for an elimination `which` rules out.  The sum is
    given as `rows` of (coefficient, monomial, the exponent of each
    symbol).  Monomials that agree past a and b form a group, and only a
    group of two or more can merge or cancel terms.  Atoms are one object
    per key, so they match by identity."""
    groups = {}
    for c, mono, ex in rows:
        ka, kb = ex.get(a, 0), ex.get(b, 0)
        if ka or kb:
            mono = tuple(pair for pair in mono if pair[0] is not a and pair[0] is not b)
        groups.setdefault(mono, []).append((ka, kb, c))
    counts = []
    for gone, sign in zip(which, (-1, 1)):
        if not gone:
            counts.append(None)
            continue
        n = 0
        for group in groups.values():
            if len(group) == 1:
                n += 1 + group[0][sign > 0]
                continue
            out = {}
            for ka, kb, c in group:
                k, kept = (ka, kb) if sign < 0 else (kb, ka)
                for i, m in enumerate(_BINOMIAL[k]):
                    term = (kept + k - i, i)
                    v = c if m == 1 and (sign > 0 or not i & 1) else _qmul(c, (m * sign**i, 1))
                    if (s := out.get(term)) is None:
                        out[term] = v
                    elif s := _qadd(s, v):
                        out[term] = s
                    else:
                        del out[term]
            n += len(out)
        counts.append(n)
    return tuple(counts)


def _over_differences(p, differences: dict) -> dict:
    """`p` rewritten greedily over differences of two symbols of one kind,
    while a step lowers its term count.  For each pair a, b in name order,
    a = b - d and then b = a + d, for d = b - a, are tried, and the first of
    the fewest terms is kept if it has fewer than `p`.  Only a symbol whose
    exponents are whole and at most `_DIFFERENCE_POWER` is eliminated.  d
    stands in as a symbol named "b-a", which no model can name:
    `differences` maps that name to the symbol and the node b - a, and
    gains those made here."""
    while True:
        symbols, ok, rows = {}, {}, []
        for mono, c in p.items():
            ex = {}
            for atom, x in mono:
                if atom.__class__ is Sym and atom.name not in differences:
                    symbols[atom.name] = atom
                    ex[atom] = x
                    ok[atom] = ok.get(atom, True) and x.__class__ is int and 0 < x <= _DIFFERENCE_POWER
            rows.append((c, mono, ex))
        atoms = [symbols[name] for name in sorted(symbols)]
        best, fewest = None, len(p)
        for i, sa in enumerate(atoms):
            for sb in atoms[i + 1:]:
                if sa.kind is not sb.kind or not (ok[sa] or ok[sb]):
                    continue
                for n, step in zip(_difference_counts(rows, sa, sb, (ok[sa], ok[sb])), ((sa, sb, -1), (sb, sa, 1))):
                    if n is not None and n < fewest:
                        best, fewest = step, n
        if best is None:
            return p
        gone, kept, sign = best
        a, b = sorted((gone, kept), key=_key)
        name = f"{b.name}-{a.name}"
        if name not in differences:
            differences[name] = (Sym(name, a.kind), Add((_term(((a, 1),), (-1, 1)), b)))
        # gone = kept + sign*d, raised once to each power it occurs in
        s = {((kept, 1),): _QONE, ((differences[name][0], 1),): (sign, 1)}
        powers, out = {}, {}
        for mono, c in p.items():
            x, rest = 0, mono
            for i, (atom, k) in enumerate(mono):
                if atom.__class__ is Sym and atom.name == gone.name:
                    x, rest = k, mono[:i] + mono[i + 1:]
                    break
            if x not in powers:
                powers[x] = _poly_int_pow(s, x)
            _poly_mul({rest: c}, powers[x], out)
        p = out


def _horner(exprs: Sequence[Expr]) -> list:
    """`exprs` with every normal-form sum of more than one term, at any
    depth, in greedy multivariate Horner form.  The sum is first rewritten
    over differences of state variables (`_over_differences`); each
    difference b - a is one node of the result, shared by every form and
    function argument of the call that holds it.  Then the atom (symbol,
    difference, function application or opaque power) with a positive
    integer exponent in the most monomials, the greatest `_key` among
    equals, is factored out once, a*Q + R, and the quotient Q and remainder
    R are rewritten alike.  A sum in which no atom occurs in two monomials,
    or that lies `_HORNER_DEPTH` factors deep, is its terms in `Add.terms`
    order.  An atom is one object per key, so equal atoms count as one; the
    arguments of functions and the bases of powers are rewritten too.  The
    result normalizes back to each expression, and depends on nothing but
    its expansion."""
    # an atom recurs in many monomials, and atoms nest: each function or
    # power node is rewritten once per depth, by (node, depth) -> its form
    done = {}
    differences = {}

    def form(e, depth):
        if e._expansion is not None and len(e._expansion) > 1:
            return split(_over_differences(e._expansion, differences), depth)
        if isinstance(e, (Add, Mul)):
            old = e.terms if isinstance(e, Add) else e.factors
            new = tuple(form(c, depth) for c in old)
            return e if all(map(operator.is_, new, old)) else type(e)(new)
        if e.__class__ is Sym:
            return differences[e.name][1] if e.name in differences else e
        if not isinstance(e, (Fun, Pow)):
            return e
        new = done.get((e, depth))
        if new is None:
            arg = form(e.arg if isinstance(e, Fun) else e.base, depth)
            new = done[e, depth] = Fun(e.name, arg) if isinstance(e, Fun) else Pow(arg, e.exponent)
        return new

    def split(p, depth):
        if len(p) == 1:
            ((mono, c),) = p.items()
            return form(_term(mono, c), depth)
        uses = {}
        if depth < _HORNER_DEPTH:
            for mono in p:
                for atom, x in mono:
                    if x > 0 and x.denominator == 1:
                        uses[atom] = uses.get(atom, 0) + 1
        most = max(uses.values(), default=0)
        if most < 2:
            return Add(tuple(form(_term(m, p[m]), depth) for m in sorted(p, key=_mono_key)))
        factor = max((atom for atom, n in uses.items() if n == most), key=_key)
        quotient, rest = {}, {}
        for mono, c in p.items():
            for i, (atom, x) in enumerate(mono):
                if atom is factor and x > 0 and x.denominator == 1:
                    lowered = mono[i + 1:] if x == 1 else ((atom, x - 1), *mono[i + 1:])
                    quotient[mono[:i] + lowered] = c
                    break
            else:
                rest[mono] = c
        product = Mul((form(factor, depth + 1), split(quotient, depth + 1)))
        return Add((product, split(rest, depth + 1))) if rest else product

    return [form(e, 0) for e in exprs]
