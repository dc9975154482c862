import itertools
import re

import pytest

from trisect import contraction
from trisect.acceptance import _weak_suite
from trisect.errors import ResourceExceeded, TrisectError
from trisect.groups import (
    GSet,
    Group,
    bimodule_group,
    coset_gset,
    cyclic,
    dihedral,
    gset_from_json,
    opposite,
    parse_group,
    point_gset,
    product,
    regular_gset,
    symmetric,
)
from trisect.hopf import function_algebra
from trisect.scalars import Cyc


def check_axioms(g):
    """The reference for a group table: every element has an inverse, and the product is associative."""
    n = g.order
    for i in range(n):
        g.inverse(i)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if g.mul(g.mul(i, j), k) != g.mul(i, g.mul(j, k)):
                    raise TrisectError(f"group {g.name}: associativity fails")


def characters_by_search(g):
    """The characters of an abelian group by search, the oracle of ``Group.characters``.

    It finds an exponent word over a greedy generating set for every
    element, tries every tuple of generator images, and keeps each candidate
    with chi(gh) = chi(g) + chi(h) on all |G|^2 pairs.
    """
    n, e = g.order, g.exponent()
    gens: list[int] = []
    span = [0]
    for x in range(n):
        if x not in span:
            gens.append(x)
            span = g.closure(gens)
    expr = {0: (0,) * len(gens)}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for t, h in enumerate(gens):
            y = g.mul(x, h)
            if y not in expr:
                v = list(expr[x])
                v[t] += 1
                expr[y] = tuple(v)
                frontier.append(y)
    orders = [g.element_order(x) for x in gens]
    chars: list[tuple[int, ...]] = []
    for images in itertools.product(*[range(0, e, e // o) for o in orders]):
        vec = tuple(sum(a * x for a, x in zip(expr[y], images)) % e for y in range(n))
        if all((vec[g.mul(i, j)] - vec[i] - vec[j]) % e == 0 for i in range(n) for j in range(n)) and vec not in chars:
            chars.append(vec)
    assert len(chars) == n, g.name
    return sorted(chars)


def _weak_suite_stabilizers():
    """Every stabilizer ``weak_simple_reps`` builds for the weak suite: one per orbit on M x M."""
    for name, mset in _weak_suite():
        for orbit in mset.pair_orbits():
            m1, m2 = orbit["base"]
            yield mset.group.subgroup(mset.stabilizer_pair(m1, m2), name=f"{name}:Stab{m1},{m2}")[0]


@pytest.mark.parametrize("g", [cyclic(1), cyclic(5), symmetric(3), symmetric(4), dihedral(4),
                               product(cyclic(2), cyclic(3))])
def test_builtin_groups_are_groups(g):
    check_axioms(g)


def test_orders_and_abelianness():
    assert cyclic(6).order == 6 and cyclic(6).is_abelian()
    assert symmetric(3).order == 6 and not symmetric(3).is_abelian()
    assert dihedral(4).order == 8 and not dihedral(4).is_abelian()
    assert symmetric(4).order == 24


@pytest.mark.parametrize("n", [0, 1, 2])
def test_small_dihedral_groups_name_their_builds(n):
    # the n-point action is not faithful below 3, so D1 and D2 come as products
    with pytest.raises(TrisectError, match=r"Z/2 for D1 and Z/2xZ/2 for D2"):
        dihedral(n)
    assert parse_group("Z/2xZ/2").order == 4 and parse_group("Z/2xZ/2").is_abelian()


def test_opposite_group():
    s3 = symmetric(3)
    op = opposite(s3)
    check_axioms(op)
    for i in range(6):
        for j in range(6):
            assert op.mul(i, j) == s3.mul(j, i)


def test_abelian_characters_orthogonality():
    # the characters of G are the irreducibles of C[G], the dual of C^G
    for g in (cyclic(4), cyclic(6), product(cyclic(2), cyclic(2)), product(cyclic(2), cyclic(4))):
        chars = [[rep.mats[i][(0, 0)] for i in range(g.order)] for rep in function_algebra(g).dual_irreps]
        assert len(chars) == g.order
        n = g.order
        for r, row in enumerate(chars):
            for s, row2 in enumerate(chars):
                total = sum((row[i] * row2[i].inverse() for i in range(n)), row[0] * 0)
                assert total == (n if r == s else 0)


def test_function_algebra_irreps_are_the_characters_in_their_order():
    # the values zeta_e^x of ``Group.characters``, written out: the oracle
    for g in (cyclic(2), cyclic(5), cyclic(8), product(cyclic(2), cyclic(2)), product(cyclic(2), cyclic(4)),
              product(cyclic(3), cyclic(3))):
        e = g.exponent()
        want = [[{(0, 0): Cyc.zeta(e, x)} for x in vec] for vec in g.characters()]
        assert [rep.mats for rep in function_algebra(g).dual_irreps] == want
    for g in (symmetric(3), dihedral(4), symmetric(4)):
        assert function_algebra(g).dual_irreps is None


_PRODUCTS = ("Z/2xZ/2", "Z/2xZ/4", "Z/3xZ/4", "Z/2xZ/2xZ/2", "Z/4xZ/6")


@pytest.mark.parametrize("g", [cyclic(n) for n in range(1, 13)] + [parse_group(s) for s in _PRODUCTS]
                         + [bimodule_group(cyclic(a), cyclic(b)) for a in range(1, 7) for b in range(1, 7)]
                         + list(_weak_suite_stabilizers()), ids=str)
def test_characters_by_extension_equal_the_search(g):
    # the same list in the same order as the search over generator images
    assert g.characters() == characters_by_search(g)


def test_nonabelian_characters_rejected():
    with pytest.raises(TrisectError):
        symmetric(3).characters()


def test_group_tables_are_capped(monkeypatch):
    # with the engine's cap at 100 entries, Z/10 (100 entries) is built and Z/11 (121) is not
    monkeypatch.setattr(contraction, "DEFAULT_CAP", 100)
    assert cyclic(10).order == 10 and product(cyclic(5), cyclic(2)).order == 10
    for build in (lambda: cyclic(11), lambda: product(cyclic(3), cyclic(4)), lambda: parse_group("Z/11"),
                  lambda: parse_group("Z/2xZ/6"), lambda: bimodule_group(cyclic(3), cyclic(4))):
        with pytest.raises(ResourceExceeded, match=r"needs 1[24][14] entries in a group table \(cap 100\)"):
            build()


def test_parse_group():
    assert parse_group("Z/4").order == 4
    assert parse_group("s3").name == "S3"
    assert parse_group("Z/2xZ/3").order == 6
    assert parse_group("D4").order == 8
    # a built-in factor of a product
    assert parse_group("S3xZ/3").order == 18 and parse_group("Z/2xS3xZ/3").order == 36
    with pytest.raises(TrisectError):
        parse_group("E8")
    # str.isdigit() admits these, int() refuses them
    for spec in ("Z/\u00b2", "Z/" + "1" * 5000):
        with pytest.raises(TrisectError, match="unknown group spec"):
            parse_group(spec)


def test_action_tables_are_checked():
    k = cyclic(2)
    assert GSet(k, ("x", "y"), ((0, 1), (0, 1))).size == 2  # the trivial action is one
    for rows in (((0, 1), (0, 0)), ((1, 0), (1, 0))):
        with pytest.raises(TrisectError, match="not a group action"):
            GSet(k, ("x", "y"), rows)


def test_point_and_regular_actions():
    k = product(cyclic(2), cyclic(3))
    assert point_gset(k).is_transitive()
    reg = regular_gset(k)
    assert reg.size == 6 and reg.is_transitive()


def test_coset_action():
    k = product(cyclic(2), opposite(cyclic(2)))
    m = coset_gset(k, [3])  # subgroup {(0,0),(1,1)}
    assert m.size == 2 and m.is_transitive()
    stab = m.stabilizer_pair(0, 0)
    assert len(stab) == 2  # the diagonal subgroup


def test_pair_orbits_partition():
    k = product(cyclic(2), opposite(cyclic(2)))
    m = coset_gset(k, [3])
    orbits = m.pair_orbits()
    covered = set()
    for o in orbits:
        covered |= set(o["transversal"])
        base = o["base"]
        for pq, h in o["transversal"].items():
            assert (m.apply(h, base[0]), m.apply(h, base[1])) == pq
    assert covered == {(a, b) for a in range(2) for b in range(2)}


def test_gset_from_json():
    k = cyclic(2)
    data = {"set": ["x", "y"], "action": {"0": ["x", "y"], "1": ["y", "x"]}}
    m = gset_from_json(k, data)
    assert m.is_transitive()
    with pytest.raises(TrisectError):
        gset_from_json(k, {"set": ["x"], "action": {"0": ["x"]}})


@pytest.mark.parametrize("call, message", [
    (lambda: Group("t", ("e", "a"), ((0, 1),)), "group t: table is not 2x2"),
    (lambda: Group("t", ("e", "a"), ((1, 0), (0, 1))), "group t: index 0 is not an identity"),
    # e is an identity and a * a = a, so a has no inverse
    (lambda: Group("t", ("e", "a"), ((0, 1), (1, 1))).inverse(1), "group t: a has no inverse"),
    (lambda: cyclic(4).subgroup([1, 3]), "subgroup must contain the identity"),
    (lambda: cyclic(4).subgroup([0, 1]), "member set is not closed under multiplication"),
    (lambda: symmetric(5), "only S3 and S4 are built in"),
    (lambda: GSet(cyclic(2), ("x",), ((0,),)), "action table has wrong shape"),
], ids=["non-square", "no-identity", "no-inverse", "subgroup-without-identity", "subgroup-not-closed", "s5",
        "gset-shape"])
def test_refusals(call, message):
    with pytest.raises(TrisectError, match=f"^{re.escape(message)}$"):
        call()
