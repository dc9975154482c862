import pytest

from trisect import hopf
from trisect.acceptance import _weak_suite
from trisect.errors import MissingIrreps, TrisectError
from trisect.groups import GSet, coset_gset, cyclic, opposite, point_gset, product, regular_gset
from trisect.scalars import Cyc

ONE = Cyc.rational(1)


def _diag_action():
    k = product(cyclic(2), opposite(cyclic(2)))
    return coset_gset(k, [3])  # |M| = 2


def test_point_action_gives_ordinary_hopf_algebras():
    k = product(cyclic(2), opposite(cyclic(3)))
    cross, vec = hopf.weak_hopf_from_action(point_gset(k))
    assert not cross.weak and not vec.weak
    assert cross.dim == k.order and vec.dim == k.order
    for h in (cross, vec):
        assert max(hopf.check_hopf_axioms(h).values()) == 0.0


def test_weak_dimensions_and_axioms():
    m = _diag_action()
    cross, vec = hopf.weak_hopf_from_action(m)
    assert cross.weak and vec.weak
    assert cross.dim == m.size**2 * m.group.order == 16
    assert max(hopf.check_hopf_axioms(cross).values()) == 0.0
    assert max(hopf.check_hopf_axioms(vec).values()) == 0.0


def _hand_built_dual(mset):
    """The dual of the crossed product, written out entry by entry: the oracle."""
    k = mset.group
    msz, ksz = mset.size, k.order

    def ix(m, n, kk):
        return (m * msz + n) * ksz + kk

    def act(g, m):
        return mset.apply(g, m)

    lab = mset.labels
    basis = tuple(f"{lab[m]}{lab[n]}(x)d{k.labels[g]}" for m in range(msz) for n in range(msz) for g in range(ksz))
    mult = {
        (ix(m, n, h), ix(n, q, h), ix(m, q, h)): ONE
        for m in range(msz) for n in range(msz) for h in range(ksz) for q in range(msz)
    }
    unit = {ix(m, m, h): ONE for m in range(msz) for h in range(ksz)}
    comult = {
        (ix(m, n, g), ix(m, n, x), ix(act(k.inverse(x), m), act(k.inverse(x), n), k.mul(k.inverse(x), g))): ONE
        for m in range(msz) for n in range(msz) for g in range(ksz) for x in range(ksz)
    }
    counit = {ix(m, n, 0): ONE for m in range(msz) for n in range(msz)}
    antipode = {
        (ix(m, n, g), ix(act(k.inverse(g), n), act(k.inverse(g), m), k.inverse(g))): ONE
        for m in range(msz) for n in range(msz) for g in range(ksz)
    }
    return hopf.HopfAlgebra(f"<MxM>(x)C^{k.name}", basis, mult, unit, comult, counit, antipode, weak=msz > 1)


def test_weak_structure_tensors_are_mutual_transposes():
    # the dual is built by transposing the crossed product; its entries as
    # written out by hand are the oracle
    actions = [m for _, m in _weak_suite()]
    actions += [regular_gset(product(cyclic(2), opposite(cyclic(2)))), regular_gset(cyclic(3))]
    assert sorted(m.size for m in actions) == [1, 1, 2, 3, 3, 4]
    for m in actions:
        _, vec = hopf.weak_hopf_from_action(m)
        want = _hand_built_dual(m)
        for field in ("name", "basis", "mult", "unit", "comult", "counit", "antipode", "weak", "dual_irreps"):
            assert getattr(vec, field) == getattr(want, field), (m.size, field)


def test_weak_triplet_integrals_are_the_action_integrals():
    # the formulas the triplet's default integrals were written out with
    for c, b, spec in ((cyclic(2), cyclic(3), None), (cyclic(2), cyclic(2), [3])):
        k = product(c, opposite(b))
        m = point_gset(k) if spec is None else coset_gset(k, spec)
        t = hopf.weak_triplet(c, b, m)
        msz = m.size
        assert t.default_integrals == {
            "A": {(p * msz + q) * k.order: ONE for p in range(msz) for q in range(msz)},
            "B": {(p * msz + p) * b.order + x: ONE for p in range(msz) for x in range(b.order)},
            "C": {(p * msz + p) * c.order + x: ONE for p in range(msz) for x in range(c.order)},
        }


@pytest.mark.parametrize("c, b, gens, msz", [(cyclic(2), cyclic(2), [3], 2), (cyclic(3), cyclic(2), [1], 3)])
def test_weak_triplet_pairings_are_the_action_pairings(c, b, gens, msz):
    # (c, b) sits in K at c * |B| + b; basis (p, q, x) of a crossed product at (p * |M| + q) * |group| + x
    k = product(c, opposite(b))
    m = coset_gset(k, gens)
    t = hopf.weak_triplet(c, b, m)
    assert m.size == msz
    nb, nc, pts = b.order, c.order, range(msz)

    def at(p, q, x, order):
        return (p * msz + q) * order + x

    assert t.tau_AB == {(at(p, q, y, k.order), at(p, q, y, nb)): ONE for p in pts for q in pts for y in range(nb)}
    assert t.tau_CA == {(at(p, q, x, nc), at(p, q, x * nb, k.order)): ONE for p in pts for q in pts for x in range(nc)}
    # tau_BC pairs (p, q, y) with (r, p, x) when x moves q to p and y moves r to p
    assert t.tau_BC == {
        (at(p, q, y, nb), at(r, p, x, nc)): ONE
        for p in pts for q in pts for y in range(nb) for r in pts for x in range(nc)
        if m.apply(x * nb, q) == p and m.apply(y, r) == p
    }


def test_weak_triplet_rejects_a_bad_action():
    k = product(cyclic(2), opposite(cyclic(2)))
    fixed = GSet(k, ("x", "y"), tuple((0, 1) for _ in range(k.order)))
    with pytest.raises(TrisectError, match="the action must be transitive"):
        hopf.weak_triplet(cyclic(2), cyclic(2), fixed)
    with pytest.raises(TrisectError, match="must carry an action of C x B"):
        hopf.weak_triplet(cyclic(2), cyclic(2), coset_gset(product(cyclic(3), opposite(cyclic(2))), [1]))


def test_weak_integrals():
    m = _diag_action()
    cross, vec = hopf.weak_hopf_from_action(m)
    lam, ell = hopf.weak_integrals_from_action(m)
    assert max(hopf.check_integral(cross, lam).values()) == 0.0
    assert max(hopf.check_integral(vec, ell).values()) == 0.0


def test_nontransitive_action_rejected():
    k = cyclic(2)
    trivial = __import__("trisect.groups", fromlist=["GSet"]).GSet(
        k, ("x", "y"), ((0, 1), (0, 1))
    )
    with pytest.raises(TrisectError):
        hopf.weak_hopf_from_action(trivial)


def test_simple_reps_point_are_group_irreps():
    k = product(cyclic(2), opposite(cyclic(2)))
    reps = hopf.weak_simple_reps(point_gset(k))
    assert len(reps) == 4 and all(r.dim == 1 for r in reps)
    assert sum(r.dim**2 for r in reps) == k.order


def test_simple_reps_dimension_bookkeeping():
    for m in (_diag_action(), regular_gset(cyclic(3))):
        reps = hopf.weak_simple_reps(m)
        assert sum(r.dim**2 for r in reps) == m.size**2 * m.group.order


def test_simple_reps_are_algebra_maps():
    m = _diag_action()
    cross, _ = hopf.weak_hopf_from_action(m)
    reps = hopf.weak_simple_reps(m)
    import itertools

    for rep in reps:
        for i, j in itertools.product(range(cross.dim), repeat=2):
            prod = cross.product({i: ONE}, {j: ONE})
            lhs = {}
            for (r, s), v in rep.mats[i].items():
                for (s2, t), w in rep.mats[j].items():
                    if s == s2:
                        key = (r, t)
                        lhs[key] = lhs.get(key, ONE * 0) + v * w
            rhs = {}
            for k, c in prod.items():
                for key, v in rep.mats[k].items():
                    rhs[key] = rhs.get(key, ONE * 0) + c * v
            keys = set(lhs) | set(rhs)
            assert not any(lhs.get(k, ONE * 0) - rhs.get(k, ONE * 0) for k in keys)


def test_nonabelian_stabilizer_requires_explicit_reps():
    from trisect.groups import symmetric

    k = product(symmetric(3), opposite(cyclic(2)))
    with pytest.raises(MissingIrreps):
        hopf.weak_simple_reps(point_gset(k))


def test_weak_triplet_checks_and_pairing_values():
    m = _diag_action()
    t = hopf.weak_triplet(cyclic(2), cyclic(2), m)
    rep = hopf.check_triplet(t)
    assert max(rep.values()) == 0.0
    assert all(v == 1 for v in t.tau_BC.values())  # 0/1-valued delta formula
    assert all(v == 1 for v in t.tau_AB.values())
    assert all(v == 1 for v in t.tau_CA.values())


def test_weak_triplet_point_reduces_to_group_triplet():
    t1 = hopf.weak_triplet(cyclic(2), cyclic(3))
    tg = hopf.group_triplet(cyclic(2), cyclic(3))
    assert t1.tau_AB == tg.tau_AB
    assert t1.tau_BC == tg.tau_BC
    assert t1.tau_CA == tg.tau_CA
    assert t1.A.mult == tg.A.mult and t1.A.comult == tg.A.comult
