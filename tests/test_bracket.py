import dataclasses
import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisect import bracket, hopf, moves
from trisect.bracket import BracketConfig, cross_check, invariant, trisection_bracket
from trisect.contraction import Node, contract_network
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


def _group_algebras(g):
    """C[G] in every slot, paired trivially: its dual C^G has the evaluation characters as irreducibles, for any G."""
    h = hopf.group_algebra(g)
    tau = hopf.trivial_pairing(h, h)
    return hopf.HopfTriplet(f"C[{g.name}]^3", h, h, h, tau, tau, tau)


@pytest.mark.parametrize("tname,t", [
    ("kashaev2", hopf.kashaev_triplet(2)),
    ("kashaev3", hopf.kashaev_triplet(3)),
    ("group", hopf.group_triplet(cyclic(2), cyclic(3))),
    ("group-algebras-S3", _group_algebras(symmetric(3))),
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
    rep = cross_check(cp2(), BracketConfig(dataclasses.replace(t, default_integrals=ints)))
    assert not rep.ok
    assert "ratio" in rep.details and rep.details["ratio"] == "2"


def test_agreement_report_compares_every_value_with_the_first():
    two = Cyc.rational(2)
    rep = bracket.CheckReport.agreement("agree", {"x": two, "y": two, "z": 2 + 0j})
    assert rep.ok and str(rep) == "PASS agree: x=2, y=2, z=2"
    rep = bracket.CheckReport.agreement("agree", {"x": two, "y": two, "z": Cyc.rational(3)})
    assert not rep.ok and str(rep) == "FAIL agree: x=2, y=2, z=3"
    # an invariant is shown by its decimal approximation
    rep = bracket.CheckReport.agreement("agree", {"x": bracket.InvariantValue(2, 8, 1), "y": bracket.InvariantValue(1, 1, 0)})
    assert rep.ok and rep.details == {"x": "1", "y": "1"}


def test_agreement_report_compares_an_invariant_with_a_float_scalar():
    # the invariant is compared by its own ==, on either side
    one = bracket.InvariantValue(2, 8, 1)
    assert bracket.CheckReport.agreement("x", {"a": one, "b": 1 + 0j}).ok
    assert bracket.CheckReport.agreement("x", {"b": 1 + 0j, "a": one}).ok
    rep = bracket.CheckReport.agreement("x", {"a": one, "b": 1.5 + 0j})
    assert not rep.ok and str(rep) == "FAIL x: a=1, b=1.5"


def test_invariant_against_a_scalar_off_a_multiple_of_three():
    # genus 1: the cubes are compared exactly, then the branch of the cube root
    assert bracket.InvariantValue(2, 8, 1) == 1
    assert bracket.InvariantValue(2 * Cyc.zeta(3), 8, 1) != 1  # the same cube, another branch


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


def test_cap_boundary_of_the_kashaev_invariant():
    # under kashaev:n=3 the largest intermediate of the cp2 and the S^4 brackets has 9 entries
    with pytest.raises(ResourceExceeded, match=r"^needs 9 entries in a contraction intermediate \(cap 8\)$"):
        invariant(cp2(), BracketConfig(hopf.kashaev_triplet(3), contraction_cap=8))
    capped = invariant(cp2(), BracketConfig(hopf.kashaev_triplet(3), contraction_cap=9))
    assert capped == invariant(cp2(), BracketConfig(hopf.kashaev_triplet(3)))


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


def test_float_invariant_of_a_tiny_s4_bracket():
    # with every integral scaled by 1e-3 the S^4 bracket is about 7.3e-25:
    # small, but not zero, so the float backend still normalizes by it
    t = hopf.kashaev_triplet(3)
    milli = Cyc.rational(Fraction(1, 1000))
    exact = invariant(cp2(), BracketConfig(t, integral_scale=dict.fromkeys("ABC", milli)))
    approx = invariant(cp2(), BracketConfig(hopf.float_triplet(t), integral_scale=dict.fromkeys("ABC", 1e-3)))
    want = exact.approx()
    assert abs(want - 1j / math.sqrt(3)) <= 1e-12
    assert abs(approx.approx() - want) <= 1e-9 * abs(want)


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


# ---------------------------------------------------------------------------
# the representation backend against a sum over labellings


def _rep_bracket_by_labellings(d, cfg, cap=4096):
    """Sum over every labelling of each component's curves by dual irreducibles.

    The slow path the one-network representation backend replaces: one
    contraction per labelling, weighted by dim(rho) for every curve and by
    dim(rho) once more for a curve with no visits, as the trace of the
    identity.  It raises ResourceExceeded when a component has more than
    ``cap`` labellings.
    """
    t = cfg.triplet
    mats = cfg.crossing_tensors
    total = ONE
    for comp in d.components():
        curves = [d.curve(cid) for cid in comp]
        choices = [t.algebra(bracket.COLOR_SLOT[c.color]).dual_irreps for c in curves]
        count = math.prod(len(reps) for reps in choices)
        if count > cap:
            raise ResourceExceeded(count, cap)
        acc = ONE * 0
        for pick in itertools.product(*choices):
            weight, nodes, dims = ONE, [], {}
            for curve, rho in zip(curves, pick):
                slot = bracket.COLOR_SLOT[curve.color]
                weight = weight * cfg.integral_scale.get(slot, ONE) * rho.dim
                n = len(curve.visits)
                if n == 0:
                    weight = weight * rho.dim
                    continue
                wires = [f"s:{curve.id}:{k}" for k in range(n)]
                dims.update(dict.fromkeys(wires, t.algebra(slot).dim))
                if n == 1:
                    traces = {(x,): sum((m.get((a, a), ONE * 0) for a in range(rho.dim)), ONE * 0)
                              for x, m in enumerate(rho.mats)}
                    nodes.append(Node(f"r:{curve.id}", (wires[0],), traces))
                    continue
                ring = [f"r:{curve.id}:{k}" for k in range(n)]
                dims.update(dict.fromkeys(ring, rho.dim))
                data = {(x, a, b): c for x, m in enumerate(rho.mats) for (a, b), c in m.items()}
                for k in range(n):
                    nodes.append(Node(f"o:{curve.id}:{k}", (wires[k], ring[k], ring[(k + 1) % n]), data))
            for x in d.crossings:
                if x.ends[0][0] in comp:
                    (sl1, w1), (sl2, w2) = bracket._crossing_slot_wires(d, x)
                    nodes.append(Node(f"x:{x.id}", (w1, w2), mats[(sl1, sl2, x.sign)]))
            acc = acc + weight * (contract_network(nodes, dims) if nodes else ONE)
        total = total * acc
    return total


def _with_a_block_of_dimension_two(t):
    """The triplet with A's first two dual characters replaced by one 2x2 block.

    rho(x) = [[chi0(x), 1], [x, chi1(x)]] is no representation, so the
    bracket is no longer the element bracket; but both rep paths sum
    dim(rho) tr(rho(x_0) ... rho(x_{n-1})) over whatever matrices the algebra
    lists, and these do not commute, so the order of the visits matters.
    """
    chi0, chi1, *rest = t.A.dual_irreps
    mats = []
    for x, (m0, m1) in enumerate(zip(chi0.mats, chi1.mats)):
        entries = {
            (0, 0): m0.get((0, 0), ONE * 0), (0, 1): ONE,
            (1, 0): Cyc.rational(x), (1, 1): m1.get((0, 0), ONE * 0),
        }
        mats.append({k: v for k, v in entries.items() if v})
    block = hopf.Rep("rho2", 2, mats)
    return dataclasses.replace(t, A=dataclasses.replace(t.A, dual_irreps=[block, *rest]))


_EMPTY = TrisectionDiagram(
    1, "closed", (Curve("r", "red", ()), Curve("b", "blue", ()), Curve("g", "green", ())), ()
)
_K2, _K3 = hopf.kashaev_triplet(2), hopf.kashaev_triplet(3)
_GROUP = hopf.group_triplet(cyclic(2), cyclic(3))
# (base diagram, triplet): cp2 has two-visit curves, s4 one-visit curves and
# three components, and _EMPTY curves with no visits; the pairs keep every
# component at no more than 4096 labellings, whatever the moves merge
_CASES = (
    (cp2(), _K2), (cp2(), _K3), (cp2(), _GROUP),
    (standard_s4(), _K2), (connected_sum(cp2(), standard_s4()), _K2),
    (connected_sum(cp2(), _EMPTY), _K3), (_EMPTY, _GROUP),
)
_SCALES = ({}, {"B": Cyc.rational(Fraction(3, 2))}, {"A": ONE + Cyc.zeta(3), "C": Cyc.rational(2)})


@settings(max_examples=40, deadline=None)
# cp2 under kashaev:n=3 after one move, with a red curve of four visits: a
# ring that multiplied its operators in the reverse order reads differently
@example(1, True, {}, 4, 1)
@given(
    st.sampled_from(range(len(_CASES))),
    st.booleans(),
    st.sampled_from(_SCALES),
    st.integers(0, 2**32 - 1),
    st.integers(0, 6),
)
def test_rep_backend_matches_the_sum_over_labellings(case, block, scale, seed, steps):
    d, t = _CASES[case]
    rng = random.Random(seed)
    for _ in range(steps):
        _, d = moves.random_move(d, rng, max_visits=3)
    cfg = BracketConfig(t, evaluator="rep", integral_scale=scale)
    got = trisection_bracket(d, cfg)
    if block:
        # a 2x2 block: the one network against the enumeration only
        cfg = BracketConfig(_with_a_block_of_dimension_two(t), evaluator="rep", integral_scale=scale)
        assert trisection_bracket(d, cfg) == _rep_bracket_by_labellings(d, cfg)
    else:
        assert got == _rep_bracket_by_labellings(d, cfg)
        assert got == trisection_bracket(d, BracketConfig(t, integral_scale=scale))


# ---------------------------------------------------------------------------
# what a config prepares once


def test_config_computes_the_s4_bracket_once(monkeypatch):
    cfg = BracketConfig(hopf.kashaev_triplet(3))
    s4_calls = []
    original = bracket.trisection_bracket

    def counting(d, c):
        if d == standard_s4():
            s4_calls.append(c)
        return original(d, c)

    monkeypatch.setattr(bracket, "trisection_bracket", counting)
    d = cp2()
    for _ in range(4):
        assert invariant(d, cfg) == invariant(cp2(), BracketConfig(hopf.kashaev_triplet(3)))
        d = moves.stabilize(d)
    # one for the reused config, one for each fresh config
    assert sum(c is cfg for c in s4_calls) == 1 and len(s4_calls) == 5


def test_replaced_config_gets_a_fresh_cache():
    cfg = BracketConfig(hopf.kashaev_triplet(3))
    z = ONE + Cyc.zeta(3)
    base = cfg.s4_bracket
    scaled = dataclasses.replace(cfg, integral_scale={"C": z})
    assert scaled.s4_bracket == z**3 * base
    assert cfg.s4_bracket == base
    assert scaled.crossing_tensors is not cfg.crossing_tensors


def test_a_dropped_config_frees_its_cache_at_once():
    # nothing the config keeps refers back to it, so no collection is needed
    gc.disable()
    try:
        for evaluator in ("element", "rep"):
            cfg = BracketConfig(hopf.kashaev_triplet(2), evaluator=evaluator)
            invariant(cp2(), cfg)
            dropped = weakref.ref(cfg)
            del cfg
            assert dropped() is None
    finally:
        gc.enable()


def test_config_fields_cannot_be_assigned():
    cfg = BracketConfig(hopf.kashaev_triplet(2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.evaluator = "rep"


_MOVE_TRIPLETS = (_K3, _GROUP)
# one config per triplet and evaluator, reused by every example
_REUSED = {(k, ev): BracketConfig(t, evaluator=ev) for k, t in enumerate(_MOVE_TRIPLETS) for ev in ("element", "rep")}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(range(len(_MOVE_TRIPLETS))), st.integers(0, 2**32 - 1))
def test_reused_config_matches_a_fresh_config_under_random_moves(k, seed):
    t, rng, d = _MOVE_TRIPLETS[k], random.Random(seed), cp2()
    for _ in range(4):
        _, d = moves.random_move(d, rng, max_visits=3)
        got = invariant(d, _REUSED[(k, "element")])
        assert got == invariant(d, BracketConfig(t))
        assert got == invariant(d, _REUSED[(k, "rep")])
