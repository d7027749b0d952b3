"""Coordinate atlas of jet prolongations and their vertical extension.

A BundleSpec fixes base coordinates x^lam, fibre coordinates y^i and
parameters.  Derived coordinates are generated by deterministic naming
rules and never stored:

    jet              y_tt, u_xt     <field>_<suffix>, suffix = base names
                                    sorted by declaration order
    vertical         v_y, v_y_tt    v_<field>[_<suffix>]
    momentum         pt_y           p<base>_<fibre>
    vertical mom.    vpt_y          vp<base>_<fibre>

Momentum coordinates carry jets of their own (pt_y_t) so the divergence
of p^lam_i along the base is expressible.  User identifiers never
contain underscores, which keeps the generated namespace disjoint from
user names; residual ambiguities between generated families (a fibre
named `xt` versus the two-entry jet suffix `xt`) are detected when the
spec is built.

The vertical partner of a jet coordinate and the jet of a vertical
coordinate produce the same symbol by construction, so the canonical
identification of the two prolongation orders holds with no bookkeeping.
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
    VERTICAL_KINDS,
    ONE,
    Expr,
    Sym,
    Symbol,
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
#: field, and on a 1-dimensional base that work grows with the square of the
#: order.  The cap allows jet order 255 on a 1-dimensional base and 6 on a
#: 4-dimensional one; the models, the golden files and the benchmark use
#: jet order at most 4.
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
    """Internal classification of a generated-coordinate name: its family
    ("fibre" or "momentum"), field position, multi-index, whether it is
    vertical, and for a momentum its base position."""

    _fields = ("family", "field", "index", "vertical", "mom_base")

    def __init__(self, family: str, field: int, index: MultiIndex, vertical: bool,
                 mom_base: Optional[int] = None):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "vertical", vertical)
        object.__setattr__(self, "mom_base", mom_base)


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
        values = dict(values or {})
        return BundleSpec(
            base=tuple(Symbol(b, SymbolKind.BASE) for b in base),
            fibre=tuple(Symbol(f, SymbolKind.FIBRE) for f in fibre),
            params=tuple(Symbol(p, SymbolKind.PARAMETER) for p in params),
            order=order,
            param_values=tuple(
                sorted((k, Fraction(v)) for k, v in values.items())
            ),
            momenta=momenta,
        )

    def __init__(self, base: tuple, fibre: tuple, params: tuple = (), order: int = 1,
                 param_values: tuple = (), momenta: bool = False, vertical: bool = False):
        """`param_values` holds (name, value) pairs, stored sorted with
        Fraction values; names may be given for Symbols."""
        base = tuple(s if isinstance(s, Symbol) else Symbol(s, SymbolKind.BASE) for s in base)
        fibre = tuple(s if isinstance(s, Symbol) else Symbol(s, SymbolKind.FIBRE) for s in fibre)
        params = tuple(
            s if isinstance(s, Symbol) else Symbol(s, SymbolKind.PARAMETER) for s in params
        )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fibre", fibre)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "order", order)
        object.__setattr__(
            self, "param_values", tuple(sorted((k, Fraction(v)) for k, v in param_values))
        )
        object.__setattr__(self, "momenta", momenta)
        object.__setattr__(self, "vertical", vertical)
        # name -> its `classify` decode: a derivation asks for the same few
        # dozen names thousands of times.  Not a field, so it takes no part
        # in equality, hashing or repr; specs derived from this one share it
        # (see `_sharing_decodes`).
        object.__setattr__(self, "_decodes", {})
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

        claimed = {}

        def claim(name, what):
            if name in claimed:
                raise SpecError(
                    f"coordinate name '{name}' is ambiguous: {claimed[name]} collides with {what}"
                )
            claimed[name] = what

        for s in (*self.base, *self.fibre, *self.params):
            if not _IDENT.match(s.name):
                raise SpecError(
                    f"'{s.name}' is not a valid coordinate name: names match "
                    "[a-zA-Z][a-zA-Z0-9]* (underscores are reserved for generated coordinates)"
                )
            claim(s.name, f"declared {s.kind.value} '{s.name}'")

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

        # enumerate every generated name; duplicates across families are
        # construction errors rather than latent parsing ambiguities
        n = len(self.base)
        top = max(self.order, 1)
        count = math.comb(n + top, n)
        if count > MAX_JET_INDICES:
            raise SpecError(
                f"jet order {self.order} over {n} base coordinate(s) gives {count} "
                f"multi-indices per field, more than {MAX_JET_INDICES}"
            )
        families = [("fibre", None)] + [("momentum", b) for b in range(n) if self.momenta]
        indices = tuple(multiindices(n, top))
        for i, f in enumerate(self.fibre_names):
            for (family, mb), idx, vertical in itertools.product(families, indices, (False, True)):
                if idx.order:
                    what = f"jet of '{f}'"
                elif mb is not None:
                    what = f"of '{f}' along '{names[mb]}'"
                elif vertical:
                    what = f"partner of '{f}'"
                else:
                    continue  # the declared fibre name itself
                what = ("vertical " if vertical else "") + ("momentum " if mb is not None else "") + what
                claim(self._coord_name(_Coord(family, i, idx, vertical, mb)), what)

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

    def _sharing_decodes(self, spec: "BundleSpec") -> "BundleSpec":
        # `_decode` reads only the base and fibre names and `momenta`, so a
        # spec derived with those unchanged keeps the names decoded so far
        object.__setattr__(spec, "_decodes", self._decodes)
        return spec

    def with_order(self, order: int) -> "BundleSpec":
        return self._sharing_decodes(BundleSpec(
            self.base, self.fibre, self.params, order, self.param_values,
            self.momenta, self.vertical))

    def with_momenta(self) -> "BundleSpec":
        return BundleSpec(self.base, self.fibre, self.params, self.order, self.param_values,
                          True, self.vertical)

    def vertical_extension(self) -> "BundleSpec":
        if self.vertical:
            raise VerticalExtensionError(
                "vertical extension applied twice: spec already carries vertical coordinates"
            )
        return self._sharing_decodes(BundleSpec(
            self.base, self.fibre, self.params, self.order, self.param_values,
            self.momenta, True))

    def bind_params(self, values) -> "BundleSpec":
        table = dict(self.param_values)
        for k, v in values.items():
            table[_sym_name(k)] = Fraction(v)
        return self._sharing_decodes(BundleSpec(
            self.base, self.fibre, self.params, self.order,
            tuple(sorted(table.items())), self.momenta, self.vertical))

    # -- name generation and classification --------------------------------

    def _coord_name(self, c: _Coord) -> str:
        f = self.fibre[c.field].name
        if c.family == "momentum":
            stem = f"p{self.base[c.mom_base].name}_{f}"
            if c.vertical:
                stem = "v" + stem
        else:
            stem = f"v_{f}" if c.vertical else f
        if c.index.order:
            stem += "_" + c.index.suffix(self.base_names)
        return stem

    def _coord_kind(self, c: _Coord) -> SymbolKind:
        if c.family == "momentum":
            if c.vertical:
                return SymbolKind.VERTICAL_MOMENTUM
            return SymbolKind.JET if c.index.order else SymbolKind.MOMENTUM
        if c.vertical:
            return SymbolKind.VERTICAL
        return SymbolKind.JET if c.index.order else SymbolKind.FIBRE

    def _coord_symbol(self, c: _Coord) -> Symbol:
        return Symbol(self._coord_name(c), self._coord_kind(c))

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
        """Parse a generated-coordinate name; None if it is not one.  A
        name is decoded once per spec; an ambiguous one raises every time."""
        name = _sym_name(name)
        decodes = self._decodes
        if name not in decodes:
            decodes[name] = self._decode(name)
        return decodes[name]

    def _decode(self, name: str) -> Optional[_Coord]:
        segs = name.split("_")
        readings = []
        fnames = self.fibre_names

        def fibre_reading(segs, vertical):
            if segs[0] not in fnames:
                return
            fld = fnames.index(segs[0])
            if len(segs) == 1:
                readings.append(_Coord("fibre", fld, MultiIndex(), vertical))
            elif len(segs) == 2:
                idx = self._decode_suffix(segs[1])
                if idx is not None and idx.order:
                    readings.append(_Coord("fibre", fld, idx, vertical))

        def momentum_reading(segs, vertical):
            if not self.momenta or segs[0][:1] != "p":
                return
            bname = segs[0][1:]
            if bname not in self.base_names or len(segs) < 2 or segs[1] not in fnames:
                return
            mb = self.base_names.index(bname)
            fld = fnames.index(segs[1])
            if len(segs) == 2:
                readings.append(_Coord("momentum", fld, MultiIndex(), vertical, mb))
            elif len(segs) == 3:
                idx = self._decode_suffix(segs[2])
                if idx is not None and idx.order:
                    readings.append(_Coord("momentum", fld, idx, vertical, mb))

        fibre_reading(segs, False)
        if segs[0] == "v" and len(segs) > 1:
            fibre_reading(segs[1:], True)
        momentum_reading(segs, False)
        if segs[0][:1] == "v":
            momentum_reading([segs[0][1:], *segs[1:]], True)

        if not readings:
            return None
        if len(set(readings)) > 1:
            raise SpecError(f"coordinate name '{name}' is ambiguous")
        return readings[0]

    def symbol(self, name) -> Symbol:
        """Resolve any valid coordinate or parameter name to its Symbol."""
        name = _sym_name(name)
        for s in (*self.base, *self.params):
            if s.name == name:
                return s
        c = self.classify(name)
        if c is None:
            raise UnknownSymbolError(name)
        return self._coord_symbol(c)

    def jet(self, sym, index: MultiIndex) -> Symbol:
        """The coordinate holding d_index of the coordinate `sym`: a fibre,
        vertical or momentum coordinate, or a jet of one of them."""
        c = self.classify(_sym_name(sym))
        if c is None:
            raise UnknownSymbolError(_sym_name(sym))
        if index.entries and max(index.entries) >= self.n:
            raise SpecError(f"multi-index {index} exceeds base dimension {self.n}")
        idx = MultiIndex(c.index.entries + index.entries)
        if idx.order > self.order:
            raise OrderOverflowError(_sym_name(sym), idx.order)
        return self._coord_symbol(_Coord(c.family, c.field, idx, c.vertical, c.mom_base))

    def momentum(self, lam, fld, vertical: bool = False) -> Symbol:
        if not self.momenta:
            raise SpecError("spec carries no momentum coordinates")
        mb = lam if isinstance(lam, int) else self.base_position(lam)
        if not isinstance(fld, int):
            fld = self.fibre_position(fld)
        return self._coord_symbol(_Coord("momentum", fld, MultiIndex(), vertical, mb))

    def conjugate_momentum(self, fld, lam) -> Symbol:
        """Momentum conjugate to a variational field along base direction lam.

        On the vertical spec the pairing swaps: the partner of y is the
        vertical momentum, the partner of v_y is the plain momentum.
        """
        c = self.classify(_sym_name(fld))
        if c is None or c.family != "fibre" or c.index.order:
            raise SpecError(f"'{_sym_name(fld)}' is not an order-0 field coordinate")
        if c.vertical:
            return self.momentum(lam, c.field, vertical=False)
        return self.momentum(lam, c.field, vertical=self.vertical)

    def vertical_partner(self, sym) -> Symbol:
        c = self.classify(_sym_name(sym))
        if c is None:
            raise UnknownSymbolError(_sym_name(sym))
        if c.vertical:
            raise VerticalExtensionError(
                f"'{_sym_name(sym)}' is already a vertical coordinate"
            )
        return self._coord_symbol(_Coord(c.family, c.field, c.index, True, c.mom_base))

    def jet_order(self, sym) -> int:
        """Jet order of a coordinate; a Symbol's kind must match its name."""
        c = self.classify(_sym_name(sym))
        if c is None:
            raise UnknownSymbolError(_sym_name(sym))
        if isinstance(sym, Symbol) and sym.kind is not self._coord_kind(c):
            raise SpecError(f"'{sym.name}' is a {self._coord_kind(c).value}, not a {sym.kind.value}")
        return c.index.order


def _sym_name(s) -> str:
    if isinstance(s, Sym):
        return s.symbol.name
    if isinstance(s, Symbol):
        return s.name
    if isinstance(s, str):
        return s
    raise TypeError(f"expected a symbol or name, got {s!r}")


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
        lambda s: ONE if s == base else Sym(spec.jet(s, step)),
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
    exactly 1 in the vertical symbols.  Inputs that already contain
    vertical symbols are rejected: the extension is applied once.
    """

    def wanted(s):
        if s.kind in VERTICAL_KINDS:
            raise VerticalExtensionError(
                f"vertical derivative applied twice: '{s.name}' is already vertical"
            )
        return s.kind in DEPENDENT_KINDS

    return derivation(e, wanted, lambda s: Sym(spec.vertical_partner(s)))


def max_jet_order(e: Expr, spec: BundleSpec) -> int:
    """Highest jet order among dependent coordinates occurring in e."""
    out = 0
    for s in free_symbols(as_expr(e)):
        if s.kind in DEPENDENT_KINDS:
            out = max(out, spec.jet_order(s))
    return out
