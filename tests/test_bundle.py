"""Jet coordinates: naming, classification, total and vertical derivatives."""

import copy
import pickle
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from deviq import (
    BundleSpec,
    MultiIndex,
    OrderOverflowError,
    SpecError,
    SymbolKind,
    UnknownSymbolError,
    VerticalExtensionError,
    iterated_total_derivative,
    max_jet_order,
    multiindices,
    normalize,
    total_derivative,
    vertical_derivative,
)
from deviq.bundle import MAX_JET_INDICES

MECH = BundleSpec.make(["t"], ["y"], order=2)
FIELD = BundleSpec.make(["x", "t"], ["u"], order=2)


def S(spec, name):
    return spec.symbol(name)


def test_multiindex_is_unordered():
    assert MultiIndex((1, 0)) == MultiIndex((0, 1))
    assert MultiIndex((0, 1)).order == 2
    assert MultiIndex().plus(0).plus(1) == MultiIndex((0, 1))


def test_multiindex_is_a_sized_sorted_collection():
    index = MultiIndex((1, 0, 1))
    assert len(index) == index.order == 3 and list(index) == [0, 1, 1]
    assert len(MultiIndex()) == 0 and tuple(MultiIndex()) == ()


def test_multiindices_counts():
    # distinct unordered indices over 2 directions: 1 + 2 + 3 = 6
    assert len(list(multiindices(2, 2))) == 6
    assert len(list(multiindices(1, 4))) == 5
    assert len(list(multiindices(3, 0))) == 1


def test_generated_names():
    assert MECH.symbol("y_tt").name == "y_tt"
    assert MECH.symbol("y_tt").kind is SymbolKind.JET
    assert FIELD.symbol("u_xt").name == "u_xt"
    assert FIELD.symbol("u_xt") == FIELD.symbol("u_tx")  # unordered index
    v = MECH.vertical_extension()
    assert v.symbol("v_y").kind is SymbolKind.VERTICAL
    assert v.symbol("v_y_tt").kind is SymbolKind.VERTICAL
    h = MECH.with_momenta()
    assert h.symbol("pt_y").kind is SymbolKind.MOMENTUM
    assert h.symbol("pt_y_t").kind is SymbolKind.JET
    hv = h.vertical_extension()
    assert hv.symbol("vpt_y").kind is SymbolKind.VERTICAL_MOMENTUM


def test_unknown_and_overflow():
    with pytest.raises(UnknownSymbolError):
        MECH.symbol("z")
    with pytest.raises(UnknownSymbolError):
        MECH.symbol("y_q")
    with pytest.raises(OrderOverflowError):
        spec = MECH.with_order(1)
        spec.jet(spec.symbol("y_t"), MultiIndex((0,)))
    # the message and `.order` name the spec's order, not the one asked for
    with pytest.raises(OrderOverflowError, match="^total derivative of 'y_tt' exceeds the tracked jet order 2$") as info:
        total_derivative(S(MECH, "y_tt"), "t", MECH)
    assert (info.value.coordinate, info.value.order) == ("y_tt", 2)


def test_spec_validation():
    with pytest.raises(SpecError):
        BundleSpec.make(["t"], ["v_y"])  # reserved underscore namespace
    with pytest.raises(SpecError):
        BundleSpec.make(["t", "ty"], ["y"])  # base names must be prefix-free
    with pytest.raises(SpecError):
        BundleSpec.make(["t"], ["t"])  # duplicate name
    with pytest.raises(SpecError):
        # v_tx reads both as a jet of 'v' and as the vertical of 'tx'
        BundleSpec.make(["t", "x"], ["v", "tx"], order=2)
    with pytest.raises(SpecError):
        BundleSpec.make([], ["y"])
    with pytest.raises(SpecError):
        BundleSpec.make(["t"], [])
    # the order-2 jets pt_tt and vpt_tt of a fibre are the (vertical)
    # momentum of the fibre 'tt' along t
    BundleSpec.make(["t"], ["pt", "tt"], order=1, momenta=True)
    with pytest.raises(SpecError, match="'pt_tt' is ambiguous: jet of 'pt' collides with momentum of 'tt' along 't'"):
        BundleSpec.make(["t"], ["pt", "tt"], order=2, momenta=True)
    with pytest.raises(SpecError, match="'vpt_tt' is ambiguous: jet of 'vpt' collides with vertical momentum"):
        BundleSpec.make(["t"], ["vpt", "tt"], order=2, momenta=True)


@pytest.mark.parametrize("base,order", [(["t"], 255), (["x", "y", "z", "t"], 6)])
def test_jet_order_cap(base, order):
    assert BundleSpec.make(base, ["u"], order=order).order == order
    with pytest.raises(SpecError, match=f"more than {MAX_JET_INDICES}"):
        BundleSpec.make(base, ["u"], order=order + 1)


def test_jet_of_any_coordinate():
    spec = FIELD.with_momenta().vertical_extension()
    for name, index, want in [
        ("u", (0, 1), "u_xt"),
        ("u_x", (1,), "u_xt"),
        ("v_u", (0,), "v_u_x"),
        ("v_u_t", (0,), "v_u_xt"),
        ("pt_u", (1,), "pt_u_t"),
        ("vpx_u", (0, 0), "vpx_u_xx"),
    ]:
        assert spec.jet(spec.symbol(name), MultiIndex(index)) == spec.symbol(want)
    with pytest.raises(OrderOverflowError):
        spec.jet(spec.symbol("v_u_xt"), MultiIndex((0,)))
    with pytest.raises(SpecError):
        spec.jet(spec.symbol("u"), MultiIndex((2,)))
    with pytest.raises(UnknownSymbolError):
        spec.jet(spec.symbol("x"), MultiIndex((0,)))


def test_ambiguous_name_rejected_at_lookup():
    # at order 1 the colliding order-2 jet is outside the enumerated
    # namespace, so construction succeeds but the lookup still refuses
    spec = BundleSpec.make(["t", "x"], ["v", "tx"], order=1)
    with pytest.raises(SpecError):
        spec.classify("v_tx")


#: fibre names that read as prefixes, fibres or jet suffixes of one another
CONFUSABLE = ("v", "p", "pt", "vp", "vpt", "tt", "tx", "yt", "y")
BASES = (("t",), ("t", "x"), ("x", "t"), ("t", "y"))


def _resolves(spec, sym, order, seen):
    """Whether the generated `sym` resolves by name to itself, of jet order
    `order`; if not, its name reads two ways and every lookup refuses it."""
    try:
        back = spec.symbol(sym.name)
    except SpecError:
        for _ in range(2):
            with pytest.raises(SpecError, match=f"coordinate name '{sym.name}' is ambiguous"):
                spec.symbol(sym.name)
        seen["ambiguous"] += 1
        return False
    assert (back.name, back.kind) == (sym.name, sym.kind)
    assert spec.jet_order(sym) == order
    seen[sym.kind] += 1
    return True


def test_generated_names_round_trip():
    # every name that `jet`, `vertical_partner` and `momentum` write reads
    # back to the same symbol, or is refused on every lookup as ambiguous;
    # a spec whose names collide within its order is refused outright
    rng = random.Random(19)
    seen = Counter()
    for _ in range(300):
        base = rng.choice(BASES)
        fibre = rng.sample(CONFUSABLE, rng.randint(1, 3))
        order, momenta = rng.randint(0, 3), rng.random() < 0.5
        try:
            spec = BundleSpec.make(base, fibre, order=order, momenta=momenta)
        except SpecError as refused:
            for _ in range(2):
                with pytest.raises(SpecError, match=re.escape(str(refused))):
                    BundleSpec.make(base, fibre, order=order, momenta=momenta)
            seen["refused"] += 1
            continue
        if rng.random() < 0.5:
            spec = spec.vertical_extension()
        roots = [(f, None) for f in spec.fibre]
        if momenta:
            roots += [(spec.momentum(lam, f), spec.momentum(lam, f, vertical=True))
                      for lam in spec.base for f in spec.fibre]
        for root, vertical_root in roots:
            if not _resolves(spec, root, 0, seen):
                with pytest.raises(SpecError, match="is ambiguous"):
                    spec.jet(root, MultiIndex((0,)))
                continue
            partner = spec.vertical_partner(root)
            assert vertical_root in (None, partner)
            partner_resolves = _resolves(spec, partner, 0, seen)
            for idx in multiindices(spec.n, spec.order, 1):
                jet = spec.jet(root, idx)
                if _resolves(spec, jet, idx.order, seen):
                    vertical_jet = spec.vertical_partner(jet)
                    if _resolves(spec, vertical_jet, idx.order, seen) and partner_resolves:
                        assert spec.jet(partner, idx) == vertical_jet
    assert set(seen) == {*SymbolKind, "ambiguous", "refused"} - {
        SymbolKind.BASE, SymbolKind.PARAMETER}
    assert seen["ambiguous"] >= 10 and seen["refused"] >= 10
    # a separator is followed by a jet suffix of order at least 1
    spec = BundleSpec.make(["t"], ["y"], momenta=True).vertical_extension()
    for name in ("y_", "v_y_", "pt_y_", "vpt_y_", "y__t", "v_", "pt_", "v__y"):
        with pytest.raises(UnknownSymbolError):
            spec.symbol(name)


def test_vertical_extension_applied_once():
    v = MECH.vertical_extension()
    with pytest.raises(VerticalExtensionError):
        v.vertical_extension()


def test_total_derivative_mechanics():
    assert total_derivative(S(MECH, "y"), 0, MECH) == S(MECH, "y_t")
    d = total_derivative(S(MECH, "y") ** 2, 0, MECH)
    assert d == normalize(2 * S(MECH, "y") * S(MECH, "y_t"))
    d2 = iterated_total_derivative(S(MECH, "y"), MultiIndex((0, 0)), MECH)
    assert d2 == S(MECH, "y_tt")


def test_total_derivative_skips_vacuous_overflow():
    # y_tt is top order, but it does not occur in the argument
    e = S(MECH, "y") * S(MECH, "t")
    out = total_derivative(e, 0, MECH)
    assert out == normalize(S(MECH, "y") + S(MECH, "t") * S(MECH, "y_t"))


def test_total_derivatives_commute():
    e = S(FIELD, "u") ** 3 + S(FIELD, "x") * S(FIELD, "u")
    spec = FIELD.with_order(3)
    xt = total_derivative(total_derivative(e, 0, spec), 1, spec)
    tx = total_derivative(total_derivative(e, 1, spec), 0, spec)
    assert xt == tx


def test_vertical_derivative_shape():
    v = MECH.vertical_extension()
    e = S(MECH, "y") * S(MECH, "y_t")
    dv = vertical_derivative(e, v)
    expect = S(v, "v_y") * S(v, "y_t") + S(v, "y") * S(v, "v_y_t")
    assert dv == normalize(expect)


def test_vertical_derivative_rejects_vertical_input():
    v = MECH.vertical_extension()
    with pytest.raises(VerticalExtensionError):
        vertical_derivative(S(v, "v_y"), v)


def test_vertical_commutes_with_total():
    v = MECH.vertical_extension()
    e = S(MECH, "y") ** 2 * S(MECH, "y_t")
    a = vertical_derivative(total_derivative(e, 0, MECH), v)
    b = total_derivative(vertical_derivative(e, v), 0, v)
    assert a == b


def test_vertical_derivative_covers_momenta():
    h = MECH.with_momenta().with_order(1)
    hv = h.vertical_extension()
    e = S(h, "pt_y") * S(h, "y")
    dv = vertical_derivative(e, hv)
    expect = S(hv, "vpt_y") * S(hv, "y") + S(hv, "pt_y") * S(hv, "v_y")
    assert dv == normalize(expect)


def test_max_jet_order():
    e = S(MECH, "y") + S(MECH, "y_tt") ** 2
    assert max_jet_order(e, MECH) == 2
    assert max_jet_order(S(MECH, "t"), MECH) == 0


def test_bind_params():
    spec = BundleSpec.make(["t"], ["y"], params=["omega"], order=1)
    assert [p.name for p in spec.unbound_params] == ["omega"]
    bound = spec.bind_params({"omega": 2})
    assert bound.param_value("omega") == 2
    assert bound.unbound_params == ()


def test_every_exported_name_resolves():
    import deviq

    missing = [name for name in deviq.__all__ if not hasattr(deviq, name)]
    assert missing == []
    # so is every name README lists as a key entry point
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Key entry points:", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"`(\w+)`", paragraph)
    assert len(listed) >= 10
    assert [name for name in listed if name not in deviq.__all__] == []


def test_decode_memo_is_invisible():
    spec = BundleSpec.make(["t"], ["y"], order=2, momenta=True).vertical_extension()
    fresh = BundleSpec.make(["t"], ["y"], order=2, momenta=True).vertical_extension()
    text = repr(fresh)
    for name in ("y_tt", "v_y_t", "pt_y", "vpt_y_t", "t", "nope"):
        spec.classify(name)
    assert spec._decodes  # the names were decoded, and kept
    assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == text
    for clone in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert clone == spec and hash(clone) == hash(spec) and repr(clone) == text
        assert clone.classify("v_y_t") == spec.classify("v_y_t")
    # an unknown name is None on every call, an ambiguous one raises on every call
    assert spec.classify("nope") is None and spec.classify("nope") is None
    assert spec.classify(spec.symbol("y_tt")) is spec.classify("y_tt")
    odd = BundleSpec.make(["t", "x"], ["v", "tx"], order=1)
    for _ in range(2):
        with pytest.raises(SpecError, match="coordinate name 'v_tx' is ambiguous"):
            odd.classify("v_tx")


def test_derived_specs_share_the_decode_memo(monkeypatch):
    decoded = []
    plain = BundleSpec._decode

    def counting(self, name):
        decoded.append(name)
        return plain(self, name)

    monkeypatch.setattr(BundleSpec, "_decode", counting)
    inside = ("y", "y_t", "v_y", "v_y_t", "pt_y", "pt_y_t", "vpt_y", "vpt_y_t")
    outside = ("y_tt", "vpt_y_ttt", "nope", "k")  # above order 1, or no coordinate
    spec = BundleSpec.make(["t"], ["y"], params=["k"], order=1, momenta=True)
    for name in inside + outside:
        spec.classify(name)
    assert decoded == list(outside)  # building the spec entered every name up to its order
    derived = [spec.with_order(3), spec.vertical_extension(), spec.bind_params({"k": 2}),
               spec.with_order(2).vertical_extension().bind_params({"k": 1})]
    for d in derived:
        for name in inside + outside + ("y_ttt", "v_y_tt", "pt_y_ttt"):
            assert d.classify(name) is spec.classify(name)
        assert d._decodes is spec._decodes
    assert decoded == list(outside)  # no name was decoded again, nor any within an order
    # the memo stays out of equality, hashing, repr, copies and pickles
    for d in derived:
        fresh = BundleSpec(d.base, d.fibre, d.params, d.order, d.param_values, d.momenta,
                           d.vertical)
        assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
        for clone in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert clone == fresh and hash(clone) == hash(fresh) and repr(clone) == repr(fresh)
            assert clone.classify("v_y_t") == spec.classify("v_y_t")
    # momenta change what a name decodes to, so `with_momenta` starts afresh
    bare = BundleSpec.make(["t"], ["y"], order=1)
    assert bare.classify("pt_y") is None
    with_momenta = bare.with_momenta()
    assert with_momenta._decodes is not bare._decodes and "pt_y" in with_momenta._decodes
    assert with_momenta.classify("pt_y") is not None and bare.classify("pt_y") is None
    # an ambiguous name is never kept, so it raises on every call of every spec
    odd = BundleSpec.make(["t", "x"], ["v", "tx"], order=1)
    for s in (odd, odd.with_order(1), odd.bind_params({})):
        for _ in range(2):
            with pytest.raises(SpecError, match="coordinate name 'v_tx' is ambiguous"):
                s.classify("v_tx")


#: fibre names equal to the prefix stems v, pt, px, vpt, vpx (with momenta
#: on the base t or x), and fibre names that are jet suffixes, or not
STEMS = ("v", "pt", "px", "vpt", "vpx")
OTHERS = ("tx", "xt", "tt", "ty", "t", "y")


def _reading(read, name):
    """`read(name)`, or the message of the `SpecError` it raises."""
    try:
        return read(name)
    except SpecError as refused:
        return str(refused)


def _spellings(spec, top):
    """Every generated name of jet order at most `top`, and each multi-entry
    jet's name with its suffix reversed."""
    for f in spec.fibre_names:
        for prefix in spec._prefixes.values():
            for idx in multiindices(spec.n, top):
                yield prefix + f + ("_" + idx.suffix(spec.base_names) if idx.order else "")
                if len(set(idx.entries)) > 1:
                    yield prefix + f + "_" + "".join(spec.base_names[p] for p in idx.entries[::-1])


def test_family_reads_names_as_a_fresh_decode_and_shares_symbols():
    # every name up to one order above the family's, read through each
    # member in turn, reads as `_decode` reads it on a fresh spec, or is
    # refused with the same message on every call; `symbol`, `jet` and
    # `vertical_partner` hand out one `Sym` per coordinate across the family
    rng = random.Random(31)
    seen = Counter()
    for _ in range(120):
        base = rng.choice(BASES[1:] + (("t",), ("x", "y", "t")))
        fibre = [rng.choice(STEMS), *rng.sample(OTHERS, rng.randint(0, 2))]
        rng.shuffle(fibre)
        order, momenta = rng.randint(0, 2), rng.random() < 0.6
        try:
            root = BundleSpec.make(base, fibre, params=["k"], order=order, momenta=momenta)
        except SpecError:
            seen["refused"] += 1
            continue
        family = [root, root.vertical_extension(), root.bind_params({"k": 3}), root.with_order(0)]
        try:
            family.append(root.with_order(order + 1).vertical_extension())
        except SpecError:
            seen["refused above"] += 1
        rng.shuffle(family)
        fresh = BundleSpec(root.base, root.fibre, root.params, root.order, (), momenta)
        top = max(d.order for d in family) + 1
        for name in _spellings(fresh, top):
            want = _reading(fresh._decode, name)
            for d in family:
                for _ in range(2):
                    assert _reading(d.classify, name) == want, (base, fibre, name)
            if isinstance(want, str):
                seen["ambiguous"] += 1
                continue
            syms = {id(d.symbol(name)) for d in family}
            assert len(syms) == 1 and family[0].symbol(name).name == fresh._coord_name(want)
            seen[want.index.order > order] += 1
        assert all(d.symbol(f.name) is f for d in family for f in root.fibre)
        for name in _spellings(fresh, order):
            if isinstance(_reading(fresh._decode, name), str):
                continue
            sym = root.symbol(name)
            for pos in range(root.n):
                ups = [d.jet(sym, MultiIndex((pos,))) for d in family
                       if d.order > root.jet_order(sym)]
                assert all(up is ups[0] for up in ups)
                if ups and not isinstance(_reading(fresh._decode, ups[0].name), str):
                    assert family[-1].symbol(ups[0].name) is ups[0]
                    seen["jet"] += 1
            if sym.kind not in (SymbolKind.VERTICAL, SymbolKind.VERTICAL_MOMENTUM):
                partner = root.vertical_partner(sym)
                assert all(d.vertical_partner(sym) is partner for d in family)
                if not isinstance(_reading(fresh._decode, partner.name), str):
                    assert root.symbol(partner.name) is partner
                    seen["partner"] += 1
    assert seen["ambiguous"] >= 20 and seen["refused"] >= 10 and seen["refused above"] >= 3
    assert seen[True] >= 1000 and seen["jet"] >= 1000 and seen["partner"] >= 500
