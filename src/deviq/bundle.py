"""Coordinate atlas of jet prolongations and their vertical extension.

A BundleSpec fixes base coordinates x^lam, fibre coordinates y^i and
parameters.  A derived coordinate is never stored: its name is a prefix,
a fibre name, and for a jet `_<suffix>`, the base names of its index in
declaration order.  One table per spec maps (vertical, momentum base) to
the prefix; `_coord_name` writes names and `_decode` reads them with it:

    (False, None)   ""        y, y_tt, u_xt
    (True, None)    "v_"      v_y, v_y_tt
    (False, lam)    "p<x>_"   pt_y, pt_y_t    x the name of base lam;
    (True, lam)     "vp<x>_"  vpt_y           with momenta only

Momentum coordinates carry jets of their own (pt_y_t) so the divergence
of p^lam_i along the base is expressible.  User identifiers never
contain underscores, so a name reads two ways only if a fibre is named
like a prefix stem (`v_tx`: a jet of `v`, or the partner of `tx`); a spec
is refused if two of its names up to its order collide, and a colliding
name above its order at lookup.

A family of specs, derived by `with_order`, `vertical_extension` and
`bind_params`, shares one memo, name -> `_Coord`, filled up to each
member's order; its entries carry one `Sym` per coordinate, so the
vertical partner of a jet coordinate and the jet of a vertical one are
the same object: the two prolongation orders agree with no bookkeeping.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Optional

from .errors import (
    OrderOverflowError,
    SpecError,
    UnknownSymbolError,
    VerticalExtensionError,
)
from .expr import (
    DEPENDENT_KINDS,
    ONE,
    Expr,
    Sym,
    SymbolKind,
    as_expr,
    derivation,
    free_symbols,
    normalize,
)
from .value import Value

__all__ = [
    "MultiIndex",
    "BundleSpec",
    "multiindices",
    "total_derivative",
    "iterated_total_derivative",
    "vertical_derivative",
    "max_jet_order",
]

_IDENT = re.compile(r"[a-zA-Z][a-zA-Z0-9]*\Z")

#: A spec refuses a jet order whose multi-indices over the base, order 0
#: included, number more than this: building a spec names every jet of every
#: field once per family, with a `_Coord` and a `Sym` each, and on a 1-dim
#: base that work grows with the square of the order.  The cap allows jet
#: order 255 on a 1-dimensional base and 6 on a 4-dimensional one; the
#: models, the golden files and the benchmark use jet order at most 4.
MAX_JET_INDICES = 256


class MultiIndex(Value):
    """Unordered multi-index: a multiset of base-coordinate positions.

    Entries are stored sorted by declaration order, so the symmetric
    jets y_{xt} and y_{tx} canonicalize to the same index.
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple = ()):
        ent = tuple(sorted(entries))
        for p in ent:
            if not isinstance(p, int) or p < 0:
                raise SpecError(f"multi-index entries must be base positions, got {p!r}")
        object.__setattr__(self, "entries", ent)

    @property
    def order(self) -> int:
        return len(self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def plus(self, position: int) -> "MultiIndex":
        return MultiIndex(self.entries + (position,))

    def suffix(self, base_names) -> str:
        return "".join(base_names[p] for p in self.entries)

    def __repr__(self):
        return f"MultiIndex{self.entries}"


def multiindices(n: int, max_order: int, min_order: int = 0) -> Iterable[MultiIndex]:
    """All distinct multi-indices over n base directions, by rising order."""
    for length in range(min_order, max_order + 1):
        for combo in itertools.combinations_with_replacement(range(n), length):
            yield MultiIndex(combo)


class _Coord(Value):
    """Internal classification of a generated-coordinate name: its field
    position, multi-index, whether it is vertical, and for a momentum its
    base position (None for every other coordinate); in a memo, `sym` too."""

    _fields = ("field", "index", "vertical", "mom_base")

    def __init__(self, field: int, index: MultiIndex, vertical: bool,
                 mom_base: Optional[int] = None):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "vertical", vertical)
        object.__setattr__(self, "mom_base", mom_base)


class _Names(dict):
    """A family's memo, name -> `_Coord` or None, full through jet order `top`."""

    top = -1


class BundleSpec(Value):
    """The bundle chart: base and fibre coordinates, parameters, jet order.

    `momenta` switches on the conjugate-momentum coordinates (one per
    fibre x base pair); `vertical` marks the spec as the doubled space
    carrying v-partners of every field.  Specs are immutable; use
    `with_order`, `with_momenta`, `vertical_extension` and `bind_params`
    to derive variants.
    """

    _fields = ("base", "fibre", "params", "order", "param_values", "momenta", "vertical")

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(base, fibre, params=(), order=1, values=None, momenta=False):
        """Build a spec from plain strings; `values` binds parameters."""
        return BundleSpec(base, fibre, params, order, tuple(dict(values or {}).items()), momenta)

    def __init__(self, base: tuple, fibre: tuple, params: tuple = (), order: int = 1,
                 param_values: tuple = (), momenta: bool = False, vertical: bool = False):
        """`param_values` holds (name, value) pairs, stored sorted with
        Fraction values; base, fibre and params may be given by name."""
        base = tuple(s if isinstance(s, Sym) else Sym(s, SymbolKind.BASE) for s in base)
        fibre = tuple(s if isinstance(s, Sym) else Sym(s, SymbolKind.FIBRE) for s in fibre)
        params = tuple(s if isinstance(s, Sym) else Sym(s, SymbolKind.PARAMETER) for s in params)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fibre", fibre)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "order", order)
        object.__setattr__(
            self, "param_values", tuple(sorted((k, Fraction(v)) for k, v in param_values))
        )
        object.__setattr__(self, "momenta", momenta)
        object.__setattr__(self, "vertical", vertical)
        # the family's memo, name -> its `classify` decode; not a field, so
        # it takes no part in equality, hashing or repr (see `_derived`)
        vars(self).setdefault("_decodes", _Names())
        # (vertical, momentum base) -> name prefix: the naming rule, read by
        # `_coord_name` and `_decode` alike.  Not a field either.
        prefixes = {(False, None): "", (True, None): "v_"}
        if momenta:
            for b, s in enumerate(base):
                prefixes[False, b] = f"p{s.name}_"
                prefixes[True, b] = f"vp{s.name}_"
        object.__setattr__(self, "_prefixes", prefixes)
        self._validate()

    def _validate(self):
        if len(self.base) < 1:
            raise SpecError("at least one base coordinate is required")
        if len(self.fibre) < 1:
            raise SpecError("at least one fibre coordinate is required")
        if self.order < 0:
            raise SpecError(f"jet order must be non-negative, got {self.order}")
        for s, kind in (
            *((s, SymbolKind.BASE) for s in self.base),
            *((s, SymbolKind.FIBRE) for s in self.fibre),
            *((s, SymbolKind.PARAMETER) for s in self.params),
        ):
            if s.kind is not kind:
                raise SpecError(f"'{s.name}' declared with kind {s.kind.value}, expected {kind.value}")

        declared = {}
        for s in (*self.base, *self.fibre, *self.params):
            if not _IDENT.match(s.name):
                raise SpecError(
                    f"'{s.name}' is not a valid coordinate name: names match "
                    "[a-zA-Z][a-zA-Z0-9]* (underscores are reserved for generated coordinates)"
                )
            if s.name in declared:
                raise _ambiguous(s.name, (f"declared {d.kind.value} '{d.name}'"
                                          for d in (declared[s.name], s)))
            declared[s.name] = s

        # prefix-free base names make jet suffixes uniquely decodable
        names = self.base_names
        for a in names:
            for b in names:
                if a != b and b.startswith(a):
                    raise SpecError(
                        f"base coordinate '{a}' is a prefix of '{b}'; jet suffixes would be ambiguous"
                    )

        bound = set()
        for k, _ in self.param_values:
            if k not in {p.name for p in self.params}:
                raise SpecError(f"binding for unknown parameter '{k}'")
            if k in bound:
                raise SpecError(f"parameter '{k}' bound twice")
            bound.add(k)

        n = len(self.base)
        top = max(self.order, 1)
        count = math.comb(n + top, n)
        if count > MAX_JET_INDICES:
            raise SpecError(
                f"jet order {self.order} over {n} base coordinate(s) gives {count} "
                f"multi-indices per field, more than {MAX_JET_INDICES}"
            )
        # enter the names the family lacks.  Only a fibre named like a prefix
        # stem lets names collide, also above the order: such a spec claims its
        # names afresh (by momentum base, index, vertical, which fixes a
        # collision's message), and leaves its memo to `_decode`
        stems = {p[:-1] for p in self._prefixes.values()}
        names = self._decodes if stems.isdisjoint(self.fibre_names) else _Names()
        mom_bases = dict.fromkeys(mb for _, mb in self._prefixes)
        indices = tuple(multiindices(n, top, names.top + 1))
        for i in range(len(self.fibre)):
            for mb, idx, vertical in itertools.product(mom_bases, indices, (False, True)):
                c = _Coord(i, idx, vertical, mb)
                name = self._coord_name(c)
                known = names.setdefault(name, c)
                if known is c:
                    self._intern(c, name)
                elif known != c:
                    raise _ambiguous(name, map(self._describe, (known, c)))
        names.top = max(names.top, top)

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.base)

    @property
    def base_names(self) -> tuple:
        return tuple(s.name for s in self.base)

    @property
    def fibre_names(self) -> tuple:
        return tuple(s.name for s in self.fibre)

    @property
    def variational_fields(self) -> tuple:
        """Order-0 field symbols varied by the Euler-Lagrange operator:
        the fibre coordinates, then their v-partners on a vertical spec."""
        out = list(self.fibre)
        if self.vertical:
            out.extend(self.vertical_partner(f) for f in self.fibre)
        return tuple(out)

    def base_position(self, lam) -> int:
        name = _sym_name(lam)
        for i, s in enumerate(self.base):
            if s.name == name:
                return i
        raise UnknownSymbolError(name)

    def fibre_position(self, f) -> int:
        name = _sym_name(f)
        for i, s in enumerate(self.fibre):
            if s.name == name:
                return i
        raise UnknownSymbolError(name)

    def param_value(self, name) -> Optional[Fraction]:
        name = _sym_name(name)
        for k, v in self.param_values:
            if k == name:
                return v
        return None

    @property
    def unbound_params(self) -> tuple:
        bound = {k for k, _ in self.param_values}
        return tuple(p for p in self.params if p.name not in bound)

    # -- derived specs -----------------------------------------------------

    def _derived(self, **changes) -> "BundleSpec":
        # `_decode` reads only the fibre names and the prefix table, so a spec
        # derived with those unchanged shares the memo, before it validates
        spec = object.__new__(BundleSpec)
        object.__setattr__(spec, "_decodes", self._decodes)
        spec.__init__(**{**{f: getattr(self, f) for f in self._fields}, **changes})
        return spec

    def with_order(self, order: int) -> "BundleSpec":
        return self._derived(order=order)

    def with_momenta(self) -> "BundleSpec":
        return BundleSpec(self.base, self.fibre, self.params, self.order, self.param_values,
                          True, self.vertical)

    def vertical_extension(self) -> "BundleSpec":
        if self.vertical:
            raise VerticalExtensionError("the spec is already a vertical extension")
        return self._derived(vertical=True)

    def bind_params(self, values) -> "BundleSpec":
        table = dict(self.param_values)
        for k, v in values.items():
            table[_sym_name(k)] = Fraction(v)
        return self._derived(param_values=tuple(table.items()))

    # -- name generation and classification --------------------------------

    def _coord_name(self, c: _Coord) -> str:
        name = self._prefixes[c.vertical, c.mom_base] + self.fibre[c.field].name
        if c.index.order:
            name += "_" + c.index.suffix(self.base_names)
        return name

    def _coord_kind(self, c: _Coord) -> SymbolKind:
        if c.vertical:
            return SymbolKind.VERTICAL if c.mom_base is None else SymbolKind.VERTICAL_MOMENTUM
        if c.index.order:
            return SymbolKind.JET
        return SymbolKind.FIBRE if c.mom_base is None else SymbolKind.MOMENTUM

    def _intern(self, c: _Coord, name: str) -> _Coord:
        """`c` with its `Sym`, named `name`."""
        object.__setattr__(c, "sym", Sym(name, self._coord_kind(c)))
        return c

    def _entry(self, c: _Coord) -> _Coord:
        """The family's `_Coord` equal to `c`, which carries its `Sym`."""
        name = self._coord_name(c)
        try:
            return self.classify(name)
        except SpecError:  # no lookup returns a name that reads two ways: key it by kind too
            return self._decodes.setdefault((name, self._coord_kind(c)), self._intern(c, name))

    def _decode_suffix(self, text: str) -> Optional[MultiIndex]:
        # base names are prefix-free, so the greedy decode is unique
        names = self.base_names
        out = []
        i = 0
        while i < len(text):
            for pos, b in enumerate(names):
                if text.startswith(b, i):
                    out.append(pos)
                    i += len(b)
                    break
            else:
                return None
        return MultiIndex(tuple(out))

    def classify(self, name: str) -> Optional[_Coord]:
        """A generated-coordinate name's `_Coord`, with the family's `Sym`, or
        None; decoded once if the memo lacks it, and if ambiguous on each call."""
        name = _sym_name(name)
        if name not in self._decodes:
            self._decodes[name] = self._decode(name)
        return self._decodes[name]

    def _decode(self, name: str) -> Optional[_Coord]:
        # one reading per prefix the name starts with: a declared fibre,
        # then an optional `_suffix` of jet order at least 1
        fnames = self.fibre_names
        readings = []
        for (vertical, mb), prefix in self._prefixes.items():
            if not name.startswith(prefix):
                continue
            fibre, sep, suffix = name[len(prefix):].partition("_")
            if fibre not in fnames:
                continue
            idx = self._decode_suffix(suffix)
            if idx is None or (sep and not idx.order):
                continue
            readings.append(_Coord(fnames.index(fibre), idx, vertical, mb))
        if len(readings) > 1:
            raise _ambiguous(name, map(self._describe, readings))
        if not readings:
            return None
        c = readings[0]  # a second spelling, u_tx of u_xt, gets the entry of u_xt
        return self._intern(c, name) if self._coord_name(c) == name else self._entry(c)

    def _describe(self, c: _Coord) -> str:
        """`c`, a generated name other than a fibre's own, as an ambiguity
        message names it: "jet of 'y'", "vertical partner of 'y'" and so on."""
        f = self.fibre[c.field].name
        if c.index.order:
            what = f"jet of '{f}'"
        elif c.mom_base is not None:
            what = f"of '{f}' along '{self.base[c.mom_base].name}'"
        else:
            what = f"partner of '{f}'"
        return ("vertical " if c.vertical else "") + ("momentum " if c.mom_base is not None else "") + what

    def _coord(self, sym) -> _Coord:
        c = self.classify(sym)
        if c is None:
            raise UnknownSymbolError(_sym_name(sym))
        return c

    def symbol(self, name) -> Sym:
        """Resolve any valid coordinate or parameter name to its `Sym` atom."""
        name = _sym_name(name)
        for s in (*self.base, *self.params):
            if s.name == name:
                return s
        return self._coord(name).sym

    def jet(self, sym, index: MultiIndex) -> Sym:
        """The coordinate holding d_index of the coordinate `sym`: a fibre,
        vertical or momentum coordinate, or a jet of one of them."""
        c = self._coord(sym)
        if index.entries and max(index.entries) >= self.n:
            raise SpecError(f"multi-index {index} exceeds base dimension {self.n}")
        idx = MultiIndex(c.index.entries + index.entries)
        if idx.order > self.order:
            raise OrderOverflowError(_sym_name(sym), self.order)
        return self._entry(_Coord(c.field, idx, c.vertical, c.mom_base)).sym

    def momentum(self, lam, fld, vertical: bool = False) -> Sym:
        if not self.momenta:
            raise SpecError("spec carries no momentum coordinates")
        mb = lam if isinstance(lam, int) else self.base_position(lam)
        if not isinstance(fld, int):
            fld = self.fibre_position(fld)
        return self._entry(_Coord(fld, MultiIndex(), vertical, mb)).sym

    def conjugate_momentum(self, fld, lam) -> Sym:
        """Momentum conjugate to a variational field along base direction lam.

        On the vertical spec the pairing swaps: the partner of y is the
        vertical momentum, the partner of v_y is the plain momentum.
        """
        c = self.classify(_sym_name(fld))
        if c is None or c.mom_base is not None or c.index.order:
            raise SpecError(f"'{_sym_name(fld)}' is not an order-0 field coordinate")
        if c.vertical:
            return self.momentum(lam, c.field, vertical=False)
        return self.momentum(lam, c.field, vertical=self.vertical)

    def vertical_partner(self, sym) -> Sym:
        c = self._coord(sym)
        if c.vertical:
            raise VerticalExtensionError(
                f"'{_sym_name(sym)}' is already a vertical coordinate"
            )
        return self._entry(_Coord(c.field, c.index, True, c.mom_base)).sym

    def jet_order(self, sym) -> int:
        """Jet order of a coordinate; a symbol's kind must match its name."""
        c = self._coord(sym)
        if isinstance(sym, Sym) and sym.kind is not c.sym.kind:
            raise SpecError(f"'{sym.name}' is a {c.sym.kind.value}, not a {sym.kind.value}")
        return c.index.order


def _sym_name(s) -> str:
    if isinstance(s, Sym):
        return s.name
    if isinstance(s, str):
        return s
    raise TypeError(f"expected a symbol or name, got {s!r}")


def _ambiguous(name: str, readings) -> SpecError:
    """The error for a coordinate name that reads as each of `readings`."""
    return SpecError(f"coordinate name '{name}' is ambiguous: {' collides with '.join(readings)}")


# --------------------------------------------------------------------------
# derivations

def total_derivative(e: Expr, lam, spec: BundleSpec) -> Expr:
    """Total derivative d_lam: the base partial plus the chain rule
    through every dependent coordinate, each shifted one jet order up.

    Overflow past spec.order is an error only for coordinates that
    actually contribute (zero partials are skipped first).
    """
    pos = lam if isinstance(lam, int) else spec.base_position(lam)
    base = spec.base[pos]
    step = MultiIndex((pos,))
    return derivation(
        e,
        lambda s: s == base or s.kind in DEPENDENT_KINDS,
        lambda s: ONE if s == base else spec.jet(s, step),
    )


def iterated_total_derivative(e: Expr, index, spec: BundleSpec) -> Expr:
    """d_Lam: total derivatives composed over the entries of the index.
    The result is independent of entry order since the d_lam commute."""
    entries = index.entries if isinstance(index, MultiIndex) else tuple(index)
    if not entries:
        return normalize(as_expr(e))
    out = e
    for lam in entries:
        out = total_derivative(out, lam, spec)
    return out


def vertical_derivative(e: Expr, spec: BundleSpec) -> Expr:
    """The vertical derivative: sum of v-partners times partials over
    every dependent coordinate (momenta included when present).

    The result is the linearization of `e` along the fibre, of degree
    exactly 1 in the vertical symbols.  An input that already depends on
    a vertical symbol is refused by `spec.vertical_partner`, which names
    that symbol: the extension is applied once.
    """
    return derivation(e, lambda s: s.kind in DEPENDENT_KINDS, spec.vertical_partner)


def max_jet_order(e: Expr, spec: BundleSpec) -> int:
    """Highest jet order among dependent coordinates occurring in e."""
    out = 0
    for s in free_symbols(as_expr(e)):
        if s.kind in DEPENDENT_KINDS:
            out = max(out, spec.jet_order(s))
    return out
