import itertools
import json
import re
from dataclasses import replace

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


def _with_curve(d, cid, **changes):
    return replace(d, curves=tuple(replace(c, **changes) if c.id == cid else c for c in d.curves))


def _with_crossing(d, xid, **changes):
    return replace(d, crossings=tuple(replace(x, **changes) if x.id == xid else x for x in d.crossings))


# one minimal defect of cp2 per violation branch: (defect, code, part of the message)
CP2_DEFECTS = [
    pytest.param(lambda d: replace(d, kind="sphere"), "kind", "unknown kind 'sphere'", id="kind"),
    pytest.param(lambda d: replace(d, genus=0), "genus", "got 0", id="genus"),
    pytest.param(lambda d: replace(d, curves=d.curves + (Curve("a", "red", ()),)),
                 "duplicate-id", "duplicate curve id", id="duplicate-curve"),
    pytest.param(lambda d: replace(d, crossings=d.crossings + d.crossings[:1]),
                 "duplicate-id", "duplicate crossing id", id="duplicate-crossing"),
    pytest.param(lambda d: _with_curve(d, "g", color="purple"), "color", "'purple'", id="color"),
    pytest.param(lambda d: _with_curve(d, "a", visits=("p_ab", "zz")),
                 "dangling-visit", "unknown crossing 'zz'", id="dangling-visit"),
    pytest.param(lambda d: _with_curve(d, "a", visits=("p_ca", "p_ab")),
                 "end-mismatch", "'p_ca' does not list end (a,0)", id="end-mismatch-curve"),
    pytest.param(lambda d: _with_crossing(d, "p_ab", ends=(("a", 1), ("b", 0))),
                 "end-mismatch", "curve 'a' visit 1 is not 'p_ab'", id="end-mismatch-crossing"),
    pytest.param(lambda d: _with_crossing(d, "p_ab", sign=0), "sign", "got 0", id="sign"),
    pytest.param(lambda d: _with_crossing(d, "p_ab", ends=(("a", 0), ("a", 1))),
                 "self-crossing", "twice", id="self-crossing"),
    pytest.param(lambda d: _with_crossing(d, "p_ab", ends=(("a", 5), ("b", 0))),
                 "dangling-end", "end index 5 out of range", id="dangling-end-range"),
    pytest.param(lambda d: replace(d, declared_k=2), "k-range", "declared k=2", id="k-range"),
]


@pytest.mark.parametrize("defect, code, message", CP2_DEFECTS)
def test_each_defect_of_cp2_has_its_code(defect, code, message):
    rep = validate(defect(cp2()), strict=True)
    assert any(v.code == code and message in v.message for v in rep.violations), str(rep)


# one minimal defect of the embedded cp2 per violation branch of the embedding
CP2_EMBEDDED_DEFECTS = [
    pytest.param(lambda e: replace(e, segment_sides={k: v for k, v in e.segment_sides.items() if k != "a"}),
                 "segments", "curve 'a' needs 2", id="segments"),
    pytest.param(lambda e: replace(e, segment_sides={**e.segment_sides, "a": (("S", "X"), ("D", "S"))}),
                 "unknown-region", "segment side names unknown region 'X'", id="unknown-region-side"),
    pytest.param(lambda e: replace(e, boundary_region="X"),
                 "unknown-region", "boundary region 'X' not declared", id="unknown-region-boundary"),
    pytest.param(lambda e: replace(e, base=replace(e.base, kind="disc")),
                 "boundary", "without a boundary region", id="boundary"),
    pytest.param(lambda e: replace(e, regions=e.regions + ("X",)), "unused-region", "'X'", id="unused-region"),
]


@pytest.mark.parametrize("defect, code, message", CP2_EMBEDDED_DEFECTS)
def test_each_defect_of_embedded_cp2_has_its_code(defect, code, message):
    assert validate_embedded(cp2_embedded(), strict=True).ok
    rep = validate_embedded(defect(cp2_embedded()), strict=True)
    assert any(v.code == code and message in v.message for v in rep.violations), str(rep)


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


def _cp2_text(change) -> str:
    data = json.loads(serialize(cp2()))
    change(data)
    return json.dumps(data)


def test_parse_errors():
    with pytest.raises(DiagramParseError):
        parse("{ not json")
    with pytest.raises(DiagramParseError):
        parse('{"genus": 1}')
    with pytest.raises(DiagramParseError):
        parse('{"genus": 1, "kind": "closed", "curves": [], "crossings": [], "zzz": 1}', strict=True)
    with pytest.raises(DiagramParseError):
        parse('{"genus": 1, "kind": "closed", "curves": [{"id": "a"}], "crossings": []}')
    # JSON integers only: true is not 1, 1.0 and "0" are not integers
    for change in (
        lambda d: d.update(genus=True),
        lambda d: d.update(genus=1.0),
        lambda d: d.update(k=True),
        lambda d: d["crossings"][0].update(sign=True),
        lambda d: d["crossings"][0].update(sign=1.0),
        lambda d: d["crossings"][0]["ends"][0].__setitem__(1, "0"),
        lambda d: d["crossings"][0]["ends"][1].__setitem__(1, False),
    ):
        with pytest.raises(DiagramParseError):
            parse(_cp2_text(change), strict=True)


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



@pytest.mark.parametrize("call, message", [
    (lambda: cp2().end_on("p_ab", "g"), "crossing 'p_ab' does not touch curve 'g'"),
], ids=["end-on-untouched-curve"])
def test_refusals(call, message):
    with pytest.raises(TrisectError, match=f"^{re.escape(message)}$"):
        call()
