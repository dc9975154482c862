import itertools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import hopf, moves
from trisect.bracket import BracketConfig, trisection_bracket
from trisect.diagram import Crossing, Curve, TrisectionDiagram, cp2, remove_disc, standard_s4, validate
from trisect.errors import MoveNotApplicable, NoStandardSummand, TrisectError
from trisect.groups import cyclic


def test_shift_basepoint_identity_cases():
    d = standard_s4()
    assert moves.shift_basepoint(d, "F3", 0) == d
    assert moves.shift_basepoint(d, "F3", 2) == d  # full cycle
    shifted = moves.shift_basepoint(d, "F3", 1)
    assert shifted.curve("F3").visits == ("x6", "x5")
    assert validate(shifted, strict=True).ok
    bare = TrisectionDiagram(4, "closed", d.curves + (Curve("F4", "red", ()),), d.crossings)
    assert moves.shift_basepoint(bare, "F4", 1) is bare  # a crossing-free curve has no basepoint to move


def test_reverse_orientation_involution():
    d = cp2()
    r = moves.reverse_orientation(d, "b")
    assert {x.id: x.sign for x in r.crossings}["p_ab"] == -1
    assert moves.reverse_orientation(r, "b") == d


def test_two_point_roundtrip_and_preconditions():
    d = cp2()
    ins = moves.two_point_insert(d, "a", 1, "g", 0, -1)
    assert validate(ins, strict=True).ok
    assert len(ins.crossings) == 5
    new = [x.id for x in ins.crossings if x.id.startswith("tp")]
    back = moves.two_point_delete(ins, *new)
    assert back == d
    with pytest.raises(MoveNotApplicable):
        moves.two_point_insert(d, "a", 0, "a", 0, 1)  # same curve
    with pytest.raises(MoveNotApplicable):
        moves.two_point_delete(d, "p_ab", "p_bc")  # different pairs, same signs
    with pytest.raises(MoveNotApplicable):
        moves.two_point_insert(d, "a", 9, "b", 0, 1)


def test_two_point_delete_preconditions():
    from trisect.diagram import Crossing, TrisectionDiagram

    d = cp2()
    ins = moves.two_point_insert(d, "a", 1, "g", 0, 1)
    p, q = [x.id for x in ins.crossings if x.id.startswith("tp")]
    # equal signs are rejected
    same_sign = TrisectionDiagram(
        ins.genus, ins.kind, ins.curves,
        tuple(Crossing(x.id, abs(x.sign), x.ends) for x in ins.crossings),
        ins.declared_k,
    )
    with pytest.raises(MoveNotApplicable):
        moves.two_point_delete(same_sign, p, q)
    # breaking adjacency on one curve is rejected
    wedged = moves.two_point_insert(ins, "a", 2, "b", 0, 1)
    with pytest.raises(MoveNotApplicable):
        moves.two_point_delete(wedged, p, q)


def test_three_point_flip_involution():
    d = cp2()
    f = moves.three_point_flip(d, "p_ab", "p_bc", "p_ca")
    assert validate(f, strict=True).ok
    assert moves.three_point_flip(f, "p_ab", "p_bc", "p_ca") == d
    with pytest.raises(MoveNotApplicable):
        moves.three_point_flip(standard_s4(), "x1", "x2", "x3")


def test_handle_slide_over_crossing_free_curve():
    from trisect.diagram import Curve, TrisectionDiagram

    d = standard_s4()
    bare = TrisectionDiagram(
        4, "closed",
        d.curves + (Curve("F4", "red", ()), Curve("b4", "blue", ()), Curve("c4", "green", ())),
        d.crossings, None,
    )
    slid = moves.handle_slide(bare, "F1", "F4", 0, 0, 1)
    assert slid == bare


def test_handle_slide_structure():
    d = standard_s4()
    s = moves.handle_slide(d, "F1", "F3", 0, 0, 1)
    assert validate(s, strict=True).ok
    assert len(s.curve("F1").visits) == 3  # gained parallel copies of F3's crossings
    assert len(s.crossings) == 8
    with pytest.raises(MoveNotApplicable):
        moves.handle_slide(d, "F1", "b1", 0, 0, 1)
    with pytest.raises(MoveNotApplicable):
        moves.handle_slide(d, "F1", "F1", 0, 0, 1)


def test_stabilize_destabilize_roundtrip():
    d = cp2()
    s = moves.stabilize(d)
    assert s.genus == 4 and validate(s, strict=True).ok
    assert moves.destabilize(s) == d
    with pytest.raises(NoStandardSummand):
        moves.destabilize(cp2())
    # destabilizing s4 itself would leave an empty genus-0 diagram
    with pytest.raises(MoveNotApplicable):
        moves.destabilize(standard_s4())
    ss = moves.stabilize(moves.stabilize(cp2()))
    assert moves.destabilize(moves.destabilize(ss)) == cp2()


def test_move_spec_json_roundtrip():
    params = {"curve_a": "a", "pos_a": 0, "curve_b": "b", "pos_b": 1, "sign": -1}
    back = moves.MoveSpec.from_json({"move": "two_point_insert", **params})
    assert back == moves.MoveSpec("two_point_insert", params)
    d2 = moves.apply_move(cp2(), back)
    assert len(d2.crossings) == 5


@pytest.mark.parametrize(
    "entry, message",
    [
        ([], "object with a 'move' key"),
        ({"curve": "a"}, "object with a 'move' key"),
        ({"move": ["stabilize"]}, "unknown move"),
        ({"move": "shift_basepoint", "curv": "a", "offset": 1}, "takes no parameter 'curv'"),
        ({"move": "shift_basepoint", "offset": 1}, "needs the parameter 'curve'"),
        ({"move": "shift_basepoint", "curve": "a", "offset": True}, "'offset' must be of type int"),
        ({"move": "handle_slide", "curve": "F1", "over": "F2", "direction": -1.0}, "'direction' must be of type int"),
        ({"move": "two_point_insert", "curve_a": "a", "pos_a": 0, "curve_b": "b", "pos_b": 0, "sign": "+"}, "'sign'"),
        ({"move": "two_point_delete", "p": 1, "q": "tp2"}, "'p' must be of type str"),
        ({"move": "stabilize", "genus": 4}, "takes no parameter 'genus'"),
    ],
)
def test_move_spec_parameters_are_checked(entry, message):
    with pytest.raises(TrisectError, match=message):
        moves.MoveSpec.from_json(entry)


def test_move_spec_defaults_may_be_left_out():
    spec = moves.MoveSpec.from_json({"move": "handle_slide", "curve": "F1", "over": "F3"})
    assert moves.apply_move(standard_s4(), spec) == moves.handle_slide(standard_s4(), "F1", "F3")


def test_random_move_determinism():
    rng1, rng2 = random.Random(7), random.Random(7)
    d1, d2 = cp2(), cp2()
    for _ in range(6):
        s1, d1 = moves.random_move(d1, rng1)
        s2, d2 = moves.random_move(d2, rng2)
        assert s1 == s2
    assert d1 == d2
    assert validate(d1, strict=True).ok


def test_moves_preserve_bracket_spot_check():
    cfg = BracketConfig(hopf.group_triplet(cyclic(3), cyclic(2)))
    d = standard_s4()
    base = trisection_bracket(d, cfg)
    rng = random.Random(3)
    for _ in range(8):
        _, d = moves.random_move(d, rng, max_visits=5)
        assert validate(d, strict=True).ok
    assert trisection_bracket(d, cfg) == base


# ---------------------------------------------------------------------------
# the candidate enumeration against trial and error


def oracle_deletions(d):
    """Every pair of crossings that two_point_delete accepts, in d.crossings order."""
    out = []
    for p, q in itertools.combinations([x.id for x in d.crossings], 2):
        try:
            moves.two_point_delete(d, p, q)
        except MoveNotApplicable:
            continue
        out.append((p, q))
    return out


def oracle_triangles(d):
    """Every triple of crossings that three_point_flip accepts, in d.crossings order."""
    out = []
    for p, q, r in itertools.combinations([x.id for x in d.crossings], 3):
        try:
            moves.three_point_flip(d, p, q, r)
        except MoveNotApplicable:
            continue
        out.append((p, q, r))
    return out


STARTS = {"cp2": cp2, "s4": standard_s4, "stab4": lambda: moves.stabilize(cp2())}


def test_enumeration_matches_trial_and_error_on_fixed_diagrams():
    d = cp2()
    assert moves.applicable_triangles(d) == oracle_triangles(d) == [("p_ab", "p_bc", "p_ca")]
    ins = moves.two_point_insert(d, "a", 1, "g", 0, -1)
    assert moves.applicable_deletions(ins) == oracle_deletions(ins) == [("tp1", "tp2")]
    # on two crossing-free curves the pair is consecutive both ways round; it is listed once
    s = moves.stabilize(cp2())
    bare = TrisectionDiagram(s.genus + 1, "closed", s.curves + (Curve("r", "red", ()), Curve("u", "blue", ())), s.crossings)
    ins = moves.two_point_insert(bare, "r", 0, "u", 0, 1)
    assert moves.applicable_deletions(ins) == oracle_deletions(ins) == [("tp1", "tp2")]
    assert moves.applicable_triangles(standard_s4()) == oracle_triangles(standard_s4()) == []


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(STARTS)), st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_enumeration_matches_trial_and_error_along_random_walks(start, seed, max_visits):
    d, rng = STARTS[start](), random.Random(seed)
    for _ in range(12):
        assert moves.applicable_deletions(d) == oracle_deletions(d)
        assert moves.applicable_triangles(d) == oracle_triangles(d)
        _, d = moves.random_move(d, rng, max_visits=max_visits)
    assert moves.applicable_deletions(d) == oracle_deletions(d)
    assert moves.applicable_triangles(d) == oracle_triangles(d)


class RecordingRandom(random.Random):
    """A ``random.Random`` that keeps a copy of the list its last ``shuffle`` left."""

    def shuffle(self, x):
        super().shuffle(x)
        self.shuffled = list(x)


def first_applicable(d, options):
    """The first of ``options`` that applies, as random_move's retry loop found it: the oracle."""
    for spec in options:
        try:
            return spec, moves.apply_move(d, spec)
        except MoveNotApplicable:
            continue
    raise TrisectError("no applicable move found")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(STARTS)), st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_random_move_takes_the_move_the_retry_loop_took(start, seed, max_visits):
    # every option random_move builds applies, so the first shuffled one is taken
    d, rng = STARTS[start](), RecordingRandom(seed)
    for _ in range(30):
        spec, moved = moves.random_move(d, rng, max_visits=max_visits)
        assert (spec, moved) == first_applicable(d, rng.shuffled)
        d = moved


# (start, seed, max_visits) of each pinned walk: max_visits=1 as in the bench's
# ladder noise, 6 as in criterion 5's random sequences
PINNED_WALKS = {
    "stab4-seed2-max1": ("stab4", 2, 1),
    "cp2-seed3-max1": ("cp2", 3, 1),
    "cp2-seed3-max6": ("cp2", 3, 6),
    "stab4-seed7-max6": ("stab4", 7, 6),
}


def walk_specs(start, seed, max_visits, steps=20):
    d, rng, specs = STARTS[start](), random.Random(seed), []
    for _ in range(steps):
        spec, d = moves.random_move(d, rng, max_visits=max_visits)
        specs.append({"move": spec.variant, **spec.params})
    return specs


def test_random_walks_are_pinned():
    # every seeded ladder, oracle and criterion-5 diagram depends on these draws
    expected = json.loads((Path(__file__).parent / "data" / "random_walks.json").read_text())
    assert sorted(expected) == sorted(PINNED_WALKS)
    for name, args in PINNED_WALKS.items():
        specs = walk_specs(*args)
        assert json.dumps(specs, sort_keys=True) == json.dumps(expected[name], sort_keys=True), name


# three curves in one component, red, blue and red again: no green curve, so not a standard handle
_RED_BLUE_RED = TrisectionDiagram(
    1, "closed",
    (Curve("r1", "red", ("x1",)), Curve("b", "blue", ("x1", "x2")), Curve("r2", "red", ("x2",))),
    (Crossing("x1", 1, (("r1", 0), ("b", 0))), Crossing("x2", 1, (("b", 1), ("r2", 0)))),
)
_NO_SUMMAND = "no split standard S^4 summand (one handle of each type) found"
_NA = "move not applicable: "


@pytest.mark.parametrize("call, error, message", [
    (lambda: moves.two_point_insert(cp2(), "a", 0, "b", 0, 0), MoveNotApplicable, _NA + "sign must be +1 or -1"),
    (lambda: moves.handle_slide(standard_s4(), "F1", "F3", 0, 0, 0), MoveNotApplicable,
     _NA + "direction must be +1 or -1"),
    (lambda: moves.handle_slide(standard_s4(), "F1", "F3", 2, 0, 1), MoveNotApplicable,
     _NA + "insertion position out of range"),
    (lambda: moves.stabilize(remove_disc(cp2())), MoveNotApplicable, _NA + "stabilization needs a closed diagram"),
    # sliding b1 over b2 joins two handles into one component of six curves
    (lambda: moves.destabilize(moves.handle_slide(standard_s4(), "b1", "b2", 0, 0, 1)), NoStandardSummand,
     _NO_SUMMAND),
    (lambda: moves.destabilize(_RED_BLUE_RED), NoStandardSummand, _NO_SUMMAND),
    (lambda: moves.random_move(TrisectionDiagram(0, "closed", (), ()), random.Random(0)), TrisectError,
     "no applicable move found"),
], ids=["insert-sign-0", "slide-direction-0", "slide-past-the-end", "stabilize-disc", "destabilize-six-curves",
        "destabilize-red-blue-red", "random-move-no-curves"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
