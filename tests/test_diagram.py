import itertools

import pytest

from trisect.diagram import (
    Crossing,
    Curve,
    EmbeddedDiagram,
    TrisectionDiagram,
    connected_sum,
    corner_conditions,
    cp2,
    cp2_embedded,
    euler_characteristic,
    parse,
    remove_disc,
    serialize,
    standard_s4,
    standard_s4_disc,
    standard_s4_embedded,
    validate,
    validate_embedded,
)
from trisect.errors import DiagramParseError, TrisectError


def test_euler_characteristic():
    assert euler_characteristic(3, 1) == 2  # the 4-sphere
    assert euler_characteristic(1, 0) == 3  # the projective plane
    assert euler_characteristic(0, 0) == 2
    with pytest.raises(TrisectError):
        euler_characteristic(2, 3)
    with pytest.raises(TrisectError):
        euler_characteristic(-1, 0)


def test_catalog_valid_strict():
    for d in (standard_s4(), cp2()):
        assert validate(d, strict=True).ok
    for e in (standard_s4_embedded(), cp2_embedded(), standard_s4_disc()):
        assert validate_embedded(e, strict=True).ok


def test_s4_structure():
    d = standard_s4()
    assert d.genus == 3 and d.declared_k == 1
    assert len(d.crossings) == 6
    assert euler_characteristic(d.genus, d.declared_k) == 2
    assert len(d.components()) == 3


def test_cp2_structure():
    d = cp2()
    assert d.genus == 1 and d.declared_k == 0
    assert len(d.crossings) == 3
    pair_colors = set()
    for x in d.crossings:
        cols = frozenset(d.curve(c).color for c, _ in x.ends)
        pair_colors.add(cols)
    assert len(pair_colors) == 3  # one crossing per colour pair
    assert euler_characteristic(d.genus, d.declared_k) == 3


def test_visit_length_sum_property():
    for d in (standard_s4(), cp2(), connected_sum(cp2(), standard_s4())):
        assert sum(len(c.visits) for c in d.curves) == 2 * len(d.crossings)


def test_validation_catches_defects():
    good = cp2()
    # same-colour crossing
    bad = TrisectionDiagram(
        1, "closed",
        (Curve("a", "red", ("x",)), Curve("b", "red", ("x",)), Curve("g", "green", ())),
        (Crossing("x", 1, (("a", 0), ("b", 0))),),
    )
    codes = {v.code for v in validate(bad).violations}
    assert "same-colour-intersection" in codes
    # dangling end
    bad2 = TrisectionDiagram(
        1, "closed",
        (Curve("a", "red", ("x",)),),
        (Crossing("x", 1, (("a", 0), ("zz", 4))),),
    )
    codes = {v.code for v in validate(bad2).violations}
    assert "dangling-end" in codes
    # strict curve counts
    rep = validate(TrisectionDiagram(2, "closed", good.curves, good.crossings, 0), strict=True)
    assert any(v.code == "curve-count" for v in rep.violations)


def test_connected_sum():
    s = connected_sum(cp2(), cp2())
    assert s.genus == 2 and len(s.crossings) == 6
    assert validate(s, strict=True).ok
    t = connected_sum(cp2(), standard_s4())
    assert t.genus == 4 and t.declared_k == 1
    with pytest.raises(TrisectError):
        connected_sum(remove_disc(cp2()), cp2())


def test_remove_disc():
    d = remove_disc(cp2())
    assert d.kind == "disc" and d.genus == 1
    with pytest.raises(TrisectError):
        remove_disc(d)


def test_serialize_parse_roundtrip():
    for d in (standard_s4(), cp2(), standard_s4_embedded(), standard_s4_disc()):
        text = serialize(d)
        back = parse(text, strict=True)
        assert serialize(back) == text


def test_parse_errors():
    with pytest.raises(DiagramParseError):
        parse("{ not json")
    with pytest.raises(DiagramParseError):
        parse('{"genus": 1}')
    with pytest.raises(DiagramParseError):
        parse('{"genus": 1, "kind": "closed", "curves": [], "crossings": [], "zzz": 1}', strict=True)
    with pytest.raises(DiagramParseError):
        parse('{"genus": 1, "kind": "closed", "curves": [{"id": "a"}], "crossings": []}')


def _search_region_assignment(d, max_regions):
    """Exhaustive backtracking oracle: segment sides over a fixed region alphabet."""
    regions = [f"r{i}" for i in range(max_regions)]
    slots = []
    for c in d.curves:
        for seg in range(max(1, len(c.visits))):
            slots.append((c.id, seg))
    seg_count = {c.id: max(1, len(c.visits)) for c in d.curves}
    crossing_slots = {}
    for x in d.crossings:
        needed = set()
        for cid, i in x.ends:
            n = seg_count[cid]
            needed.add((cid, (i - 1) % n))
            needed.add((cid, i % n))
        crossing_slots[x.id] = needed

    assignment: dict[tuple, tuple] = {}

    def consistent() -> bool:
        table = {}
        for (cid, seg), pair in assignment.items():
            table.setdefault(cid, {})[seg] = pair
        full = {cid: tuple(v.get(i, ("?", "?")) for i in range(seg_count[cid])) for cid, v in table.items()}
        for cid in seg_count:
            full.setdefault(cid, tuple(("?", "?") for _ in range(seg_count[cid])))
        e = EmbeddedDiagram(d, tuple(regions) + ("?",), full)
        done = set(assignment)
        for x in d.crossings:
            if crossing_slots[x.id] <= done:
                for _, lhs, rhs in corner_conditions(e, x.id):
                    if lhs != rhs:
                        return False
        return True

    def rec(i):
        if i == len(slots):
            used = {r for pair in assignment.values() for r in pair}
            if used != set(regions):
                return None
            table = {}
            for (cid, seg), pair in assignment.items():
                table.setdefault(cid, {})[seg] = pair
            full = {cid: tuple(v[i2] for i2 in range(seg_count[cid])) for cid, v in table.items()}
            return EmbeddedDiagram(d, tuple(regions), full)
        for pair in itertools.product(regions, repeat=2):
            assignment[slots[i]] = pair
            if consistent():
                found = rec(i + 1)
                if found is not None:
                    return found
            del assignment[slots[i]]
        return None

    return rec(0)


def test_cp2_region_search_oracle():
    # a globally consistent 3-region assignment exists for the cp2 pattern
    e = _search_region_assignment(cp2(), 3)
    assert e is not None
    assert validate_embedded(e).ok


def test_corner_conditions_fail_on_wrong_sides():
    e = cp2_embedded()
    bad = dict(e.segment_sides)
    bad["a"] = (("U", "S"), bad["a"][1])  # swapped sides on one segment
    rep = validate_embedded(EmbeddedDiagram(e.base, e.regions, bad))
    assert any(v.code == "corner" for v in rep.violations)
