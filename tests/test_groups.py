import pytest

from trisect.errors import TrisectError
from trisect.groups import (
    GSet,
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


@pytest.mark.parametrize("g", [cyclic(1), cyclic(5), symmetric(3), symmetric(4), dihedral(4),
                               product(cyclic(2), cyclic(3))])
def test_builtin_groups_are_groups(g):
    g.check_axioms()


def test_orders_and_abelianness():
    assert cyclic(6).order == 6 and cyclic(6).is_abelian()
    assert symmetric(3).order == 6 and not symmetric(3).is_abelian()
    assert dihedral(4).order == 8 and not dihedral(4).is_abelian()
    assert symmetric(4).order == 24


def test_opposite_group():
    s3 = symmetric(3)
    op = opposite(s3)
    op.check_axioms()
    for i in range(6):
        for j in range(6):
            assert op.mul(i, j) == s3.mul(j, i)


def test_abelian_characters_orthogonality():
    for g in (cyclic(4), cyclic(6), product(cyclic(2), cyclic(2)), product(cyclic(2), cyclic(4))):
        chars = g.character_values()
        assert len(chars) == g.order
        n = g.order
        for r, row in enumerate(chars):
            for s, row2 in enumerate(chars):
                total = sum((row[i] * row2[i].inverse() for i in range(n)), row[0] * 0)
                assert total == (n if r == s else 0)


def test_nonabelian_characters_rejected():
    with pytest.raises(TrisectError):
        symmetric(3).characters()


def test_parse_group():
    assert parse_group("Z/4").order == 4
    assert parse_group("s3").name == "S3"
    assert parse_group("Z/2xZ/3").order == 6
    assert parse_group("D4").order == 8
    with pytest.raises(TrisectError):
        parse_group("E8")


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
