"""Group data from its one construction against the explicit builders it replaced.

``hopf`` builds C[G], C^G and the group triplet from the crossed product of a
point.  The builders below write each structure map out on its own, as
``hopf`` once did, and are the oracle: every map must equal theirs both as a
dict and in iteration order.  The one exception is C^G's antipode, which now
comes in the transposed order of the crossed product's, with the same entries.
"""

import pytest

from trisect import hopf
from trisect.groups import (
    GSet, WeakConfig, bimodule_group, coset_gset, opposite, parse_group, point_gset, regular_gset,
)
from trisect.hopf import HopfAlgebra, HopfTriplet, Rep
from trisect.scalars import Cyc

ONE = Cyc.rational(1)

GROUPS = {s: parse_group(s) for s in ("Z/1", "Z/2", "Z/3", "Z/4", "Z/5", "Z/6", "S3", "S4", "D4", "Z/2xZ/2")}
GROUPS["S4xS3^op"] = bimodule_group(GROUPS["S4"], GROUPS["S3"])

# generators of a subgroup whose cosets make a set of 2 to 4 points
COSET_GENERATORS = {
    "Z/4": [2],
    "Z/6": [2],
    "S3": [1],
    "S4": [1, 2],  # the stabilizer of 0: the action on four points
    "D4": [4],
    "Z/2xZ/2": [1],
    "S4xS3^op": [c * 6 for c in range(1, 24)] + [3],  # S4 x A3, of index 2
}


def explicit_group_algebra(g):
    n = g.order
    mult = {(i, j, g.mul(i, j)): ONE for i in range(n) for j in range(n)}
    comult = {(i, i, i): ONE for i in range(n)}
    counit = {i: ONE for i in range(n)}
    antipode = {(i, g.inverse(i)): ONE for i in range(n)}
    irreps = [
        Rep(f"ev_{g.labels[h]}", 1, [({(0, 0): ONE} if i == h else {}) for i in range(n)])
        for h in range(n)
    ]
    return HopfAlgebra(f"C[{g.name}]", g.labels, mult, {0: ONE}, comult, counit, antipode, False, irreps)


def explicit_function_algebra(g):
    n = g.order
    basis = tuple(f"d{lab}" for lab in g.labels)
    mult = {(i, i, i): ONE for i in range(n)}
    unit = {i: ONE for i in range(n)}
    comult = {(g.mul(j, k), j, k): ONE for j in range(n) for k in range(n)}
    antipode = {(i, g.inverse(i)): ONE for i in range(n)}
    irreps = hopf.weak_simple_reps(point_gset(g)) if g.is_abelian() else None
    return HopfAlgebra(f"C^{g.name}", basis, mult, unit, comult, {0: ONE}, antipode, False, irreps)


def explicit_group_triplet(c_group, b_group):
    cfg = WeakConfig(c_group, b_group)
    k = cfg.k_group
    a = hopf.cop(explicit_function_algebra(k))
    a.name = f"C^({k.name})"
    bt = explicit_group_algebra(opposite(b_group))
    ct = hopf.op(hopf.cop(explicit_group_algebra(c_group)))
    nb, nc = b_group.order, c_group.order
    tau_ab = {(cfg.k_of_b(b), b): ONE for b in range(nb)}
    tau_ca = {(c, cfg.k_of_c(c)): ONE for c in range(nc)}
    tau_bc = {(b, c): ONE for b in range(nb) for c in range(nc)}
    return HopfTriplet(f"group:C={c_group.name},B={b_group.name}", a, bt, ct, tau_ab, tau_bc, tau_ca)


def explicit_crossed_product(mset):
    """The crossed product C^{MxM} x| C[K] and its dual, written out loop by loop."""
    k = mset.group
    msz, ksz = mset.size, k.order
    ix = hopf.crossed_index(mset)
    lab, cells = mset.labels, [(m, n, kk) for m in range(msz) for n in range(msz) for kk in range(ksz)]
    basis = tuple(f"d{lab[m]}d{lab[n]}(x){k.labels[kk]}" for m, n, kk in cells)
    mult = {}
    for m in range(msz):
        for n in range(msz):
            for g in range(ksz):
                gi = k.inverse(g)
                p, q = mset.apply(gi, m), mset.apply(gi, n)
                for h in range(ksz):
                    mult[(ix(m, n, g), ix(p, q, h), ix(m, n, k.mul(g, h)))] = ONE
    unit = {ix(m, n, 0): ONE for m in range(msz) for n in range(msz)}
    comult = {
        (ix(m, n, g), ix(m, p, g), ix(p, n, g)): ONE
        for m in range(msz) for n in range(msz) for g in range(ksz) for p in range(msz)
    }
    counit = {ix(m, m, g): ONE for m in range(msz) for g in range(ksz)}
    antipode = {}
    for m in range(msz):
        for n in range(msz):
            for g in range(ksz):
                gi = k.inverse(g)
                antipode[(ix(m, n, g), ix(mset.apply(gi, n), mset.apply(gi, m), gi))] = ONE
    cross = HopfAlgebra(f"C^(MxM)x|C[{k.name}]", basis, mult, unit, comult, counit, antipode, weak=msz > 1)
    basis_d = tuple(f"{lab[m]}{lab[n]}(x)d{k.labels[kk]}" for m, n, kk in cells)
    d = hopf.dual(cross)
    d.name, d.basis = f"<MxM>(x)C^{k.name}", basis_d
    return cross, d


def assert_same(got, want, antipode_order=None):
    """Equal names, bases and irreducibles; every map equal as a dict and in iteration order.

    The antipode's keys come in ``antipode_order`` when it is given.
    """
    assert (got.name, got.basis, got.weak) == (want.name, want.basis, want.weak)
    assert got.dual_irreps == want.dual_irreps
    for key in ("mult", "unit", "comult", "counit", "antipode"):
        g, w = getattr(got, key), getattr(want, key)
        assert g == w, key
        order = antipode_order if key == "antipode" and antipode_order is not None else list(w)
        assert list(g) == order, key


def transposed_antipode(g):
    """C[G]'s antipode keys, each transposed: the order of C^G's antipode."""
    return [(j, i) for i, j in explicit_group_algebra(g).antipode]


@pytest.mark.parametrize("name", list(GROUPS))
def test_point_algebras_match_the_explicit_builders(name):
    g = GROUPS[name]
    assert_same(hopf.group_algebra(g), explicit_group_algebra(g))
    assert_same(hopf.function_algebra(g), explicit_function_algebra(g), transposed_antipode(g))


def _gsets():
    """(id, G-set) of every kind: points, regular sets up to order 8, cosets, and a non-transitive set."""
    out = [(f"point:{s}", point_gset(g)) for s, g in GROUPS.items()]
    out += [(f"regular:{s}", regular_gset(g)) for s, g in GROUPS.items() if g.order <= 8]
    out += [(f"cosets:{s}", coset_gset(GROUPS[s], gens)) for s, gens in COSET_GENERATORS.items()]
    out.append(("swap", GSet(GROUPS["Z/2"], ("x", "y", "z"), ((0, 1, 2), (1, 0, 2)))))
    return out


@pytest.mark.parametrize("mset", [m for _, m in _gsets()], ids=[i for i, _ in _gsets()])
def test_crossed_product_matches_the_explicit_loops(mset):
    assert 1 <= mset.size <= 8
    got = hopf.weak_hopf_from_action(mset, strict=False)
    for h, want in zip(got, explicit_crossed_product(mset)):
        assert_same(h, want)


PAIRS = [(s, "Z/3") for s in GROUPS if s != "S4xS3^op"] + [("Z/2", s) for s in GROUPS if s != "S4xS3^op"]
PAIRS.append(("S4", "S3"))


@pytest.mark.parametrize("c,b", PAIRS)
def test_group_triplet_matches_the_explicit_pairings(c, b):
    got, want = hopf.group_triplet(GROUPS[c], GROUPS[b]), explicit_group_triplet(GROUPS[c], GROUPS[b])
    assert (got.name, got.default_integrals) == (want.name, None)
    for key in ("tau_AB", "tau_BC", "tau_CA"):
        assert getattr(got, key) == getattr(want, key), key
        assert list(getattr(got, key)) == list(getattr(want, key)), key
    assert_same(got.A, want.A, transposed_antipode(bimodule_group(GROUPS[c], GROUPS[b])))
    assert_same(got.B, want.B)
    assert_same(got.C, want.C)
