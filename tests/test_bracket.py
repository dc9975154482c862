from fractions import Fraction

import pytest

from trisect import bracket, hopf, moves
from trisect.bracket import BracketConfig, cross_check, invariant, trisection_bracket
from trisect.diagram import Crossing, Curve, TrisectionDiagram, connected_sum, cp2, standard_s4
from trisect.errors import MissingIrreps, ResourceExceeded, StabilizationObstruction, TrisectError
from trisect.groups import cyclic, symmetric
from trisect.scalars import Cyc

ONE = Cyc.rational(1)


def gauss_sum(n):
    return sum((Cyc.zeta(n, (k * k) % n) for k in range(n)), ONE * 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kashaev_values(n):
    cfg = BracketConfig(hopf.kashaev_triplet(n))
    assert trisection_bracket(standard_s4(), cfg) == Cyc.rational(n**6)
    assert trisection_bracket(cp2(), cfg) == n * gauss_sum(n)


def test_group_triplet_values_match_counting():
    cfg = BracketConfig(hopf.group_triplet(cyclic(2), cyclic(3)))
    assert trisection_bracket(standard_s4(), cfg) == Cyc.rational(1296)  # (|B||C|)^4
    assert trisection_bracket(cp2(), cfg) == Cyc.rational(6)  # |B||C| * |labellings|


def test_empty_diagram_gives_counit_product():
    empty = TrisectionDiagram(
        1, "closed",
        (Curve("r", "red", ()), Curve("b", "blue", ()), Curve("g", "green", ())),
        (),
    )
    cfg = BracketConfig(hopf.kashaev_triplet(3))
    assert trisection_bracket(empty, cfg) == Cyc.rational(27)
    assert trisection_bracket(empty, BracketConfig(hopf.kashaev_triplet(3), evaluator="rep")) == Cyc.rational(27)


def test_nonabelian_group_triplet_bracket():
    cfg = BracketConfig(hopf.group_triplet(symmetric(3), cyclic(2)))
    # counting convention: <S4> = (|B||C|)^4
    assert trisection_bracket(standard_s4(), cfg) == Cyc.rational(12**4)


@pytest.mark.parametrize("tname,t", [
    ("kashaev2", hopf.kashaev_triplet(2)),
    ("kashaev3", hopf.kashaev_triplet(3)),
    ("group", hopf.group_triplet(cyclic(2), cyclic(3))),
])
def test_backends_agree(tname, t):
    for d in (standard_s4(), cp2(), moves.stabilize(cp2())):
        rep = cross_check(d, BracketConfig(t))
        assert rep.ok, rep


def test_rescaling_covariance():
    t = hopf.kashaev_triplet(3)
    z = ONE + Cyc.zeta(3)
    for d, g in ((cp2(), 1), (standard_s4(), 3)):
        base = trisection_bracket(d, BracketConfig(t))
        scaled = trisection_bracket(d, BracketConfig(t, integral_scale={"C": z}))
        assert scaled == z**g * base


def test_cross_check_detects_rescaled_integrals():
    t = hopf.kashaev_triplet(3)
    ints = {s: hopf.compute_integral(t.algebra(s)) for s in "ABC"}
    ints["B"] = {k: Cyc.rational(2) * v for k, v in ints["B"].items()}
    rep = cross_check(cp2(), BracketConfig(t, integrals=ints))
    assert not rep.ok
    assert "ratio" in rep.details and rep.details["ratio"] == "2"


def test_multiplicativity():
    for t in (hopf.kashaev_triplet(2), hopf.group_triplet(cyclic(2), cyclic(3))):
        cfg = BracketConfig(t)
        for t1, t2 in ((cp2(), cp2()), (standard_s4(), cp2()), (standard_s4(), standard_s4())):
            assert bracket.bracket_multiplicativity_check(t1, t2, cfg).ok


def test_disc_diagram_evaluates_like_closed():
    from trisect.diagram import remove_disc

    cfg = BracketConfig(hopf.kashaev_triplet(3))
    assert trisection_bracket(remove_disc(cp2()), cfg) == trisection_bracket(cp2(), cfg)


def test_invariant_of_s4_is_one():
    for t in (hopf.kashaev_triplet(3), hopf.group_triplet(cyclic(2), cyclic(2))):
        assert invariant(standard_s4(), BracketConfig(t)) == 1


def test_invariant_equality_across_genera():
    cfg = BracketConfig(hopf.kashaev_triplet(3))
    a = invariant(cp2(), cfg)
    b = invariant(moves.stabilize(cp2()), cfg)
    assert a.genus == 1 and b.genus == 4
    assert a == b
    assert not a == invariant(standard_s4(), cfg)


def test_invariant_value_against_scalar():
    cfg = BracketConfig(hopf.group_triplet(cyclic(2), cyclic(3)))
    iv = invariant(connected_sum(standard_s4(), standard_s4()), cfg)
    assert iv.genus == 6 and iv == 1
    roots = iv.all_roots()
    assert len(roots) == 3 and any(abs(r - 1) < 1e-9 for r in roots)


def test_stabilization_obstruction():
    t = hopf.kashaev_triplet(3)
    cfg = BracketConfig(t, integral_scale={"A": ONE * 0})
    with pytest.raises(StabilizationObstruction):
        invariant(cp2(), cfg)


def test_resource_cap():
    cfg = BracketConfig(hopf.kashaev_triplet(5), contraction_cap=3)
    with pytest.raises(ResourceExceeded) as exc:
        trisection_bracket(cp2(), cfg)
    assert exc.value.cost > 3


def test_float_backend_keeps_small_values():
    # a genus-10 slide with every integral scaled by 1e-3: the bracket is about
    # 4.3e-77, far below any fixed threshold for dropping small entries
    d = cp2()
    while d.genus < 10:
        d = moves.stabilize(d)
    d = moves.handle_slide(d, "b1", "b3", 0, 0, 1)
    t = hopf.kashaev_triplet(5)
    milli = Cyc.rational(Fraction(1, 1000))
    exact = trisection_bracket(d, BracketConfig(t, integral_scale=dict.fromkeys("ABC", milli)))
    approx = trisection_bracket(d, BracketConfig(hopf.float_triplet(t), integral_scale=dict.fromkeys("ABC", 1e-3)))
    assert abs(exact.to_complex()) > 1e-78
    assert abs(approx - exact.to_complex()) <= 1e-9 * abs(exact.to_complex())


def test_missing_irreps_for_rep_backend():
    t = hopf.group_triplet(symmetric(3), cyclic(2))  # K nonabelian: no characters
    with pytest.raises(MissingIrreps):
        trisection_bracket(cp2(), BracketConfig(t, evaluator="rep"))


def test_invalid_diagram_rejected():
    bad = TrisectionDiagram(
        1, "closed",
        (Curve("a", "red", ("x",)), Curve("b", "red", ("x",)), Curve("g", "green", ())),
        (Crossing("x", 1, (("a", 0), ("b", 0))),),
    )
    with pytest.raises(TrisectError):
        trisection_bracket(bad, BracketConfig(hopf.kashaev_triplet(2)))


def test_weak_triplet_bracket_counts_labellings_on_connected_patterns():
    # on a connected crossing pattern the weak bracket is the labelling count
    from trisect.groups import coset_gset, opposite, product

    c = b = cyclic(2)
    k = product(c, opposite(b))
    m = coset_gset(k, [3])
    t = hopf.weak_triplet(c, b, m)
    assert trisection_bracket(cp2(), BracketConfig(t)) == Cyc.rational(m.size)
