import dataclasses
import gc
import importlib
import itertools
import math
import random
import re
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisect import bracket, cli, contraction, hopf, moves
from trisect.bracket import BracketConfig, InvariantValue, cross_check, invariant, trisection_bracket
from trisect.contraction import Node, contract_network
from trisect.diagram import Crossing, Curve, TrisectionDiagram, connected_sum, cp2, standard_s4
from trisect.errors import MissingIrreps, ResourceExceeded, StabilizationObstruction, TrisectError
from trisect.groups import cyclic, symmetric
from trisect.scalars import Cyc, approx_eq, cyclotomic_poly, to_complex

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
    # under kashaev:n=3 the largest step of the cp2 and the S^4 brackets keeps 3 entries
    with pytest.raises(ResourceExceeded, match=r"^needs 3 or more entries in a contraction intermediate \(cap 2\)$"):
        invariant(cp2(), BracketConfig(hopf.kashaev_triplet(3), contraction_cap=2))
    capped = invariant(cp2(), BracketConfig(hopf.kashaev_triplet(3), contraction_cap=3))
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


def test_weak_invariant_is_refused_when_m_has_more_points():
    # 0.630 on cp2, 0.315 on stabilized walks of cp2: not an invariant (ROADMAP item 2)
    from trisect.groups import coset_gset, opposite, product

    c = b = cyclic(2)
    t = hopf.weak_triplet(c, b, coset_gset(product(c, opposite(b)), [3]))
    for cfg in (BracketConfig(t), BracketConfig(hopf.float_triplet(t))):
        with pytest.raises(TrisectError, match=r"ROADMAP item 2"):
            invariant(cp2(), cfg)
        assert trisection_bracket(cp2(), cfg) == 2
    # on a point the weak triplet is the group triplet, whose invariant stands
    assert invariant(cp2(), BracketConfig(hopf.weak_triplet(c, cyclic(3)))) == invariant(
        cp2(), BracketConfig(hopf.group_triplet(c, cyclic(3))))


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


class Data(dict):
    """Node data that a weak reference can watch: a plain dict cannot be one's referent."""


def test_a_dropped_config_frees_its_memo_and_tensors_at_once(monkeypatch):
    # the memo holds the config's tensors and nothing holds the memo but the config
    monkeypatch.setattr(bracket, "int_entries", lambda data: Data(contraction.int_entries(data)))
    gc.disable()
    try:
        for evaluator in ("element", "rep"):
            cfg = BracketConfig(hopf.kashaev_triplet(3), evaluator=evaluator)
            rng, d = random.Random(0), moves.stabilize(cp2())
            for _ in range(4):
                _, d = moves.random_move(d, rng, max_visits=3)
                invariant(d, cfg)
            assert cfg.joins and all(type(t) is Data for t in cfg.crossing_tensors.values())
            dropped = [weakref.ref(cfg)] + [weakref.ref(t) for t in cfg.crossing_tensors.values()]
            del cfg
            assert all(r() is None for r in dropped)
    finally:
        gc.enable()


def test_the_memo_of_a_config_stops_growing(monkeypatch):
    # the configs of the ladder-exact workload at seed 1: every pass makes the same joins
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    cfgs = [BracketConfig(cli.parse_triplet(spec)) for spec in workloads.STRONG_SPECS]
    plan = workloads.ladder_plan(1)
    for _ in range(3):
        for d in workloads.ladder_diagrams(plan):
            for cfg in cfgs:
                invariant(d, cfg)
        assert sum(len(cfg.joins) for cfg in cfgs) == 72
        assert sum(len(kept) for cfg in cfgs for *_, kept in cfg.joins.values()) == 2422


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


# ---------------------------------------------------------------------------
# InvariantValue ==: one comparison path, against the two paths it replaced


def _old_near(iv, z):
    return abs(iv.approx() - z) <= 1e-8 * max(1.0, abs(iv.approx()))


def old_invariant_eq(iv, other):
    """``InvariantValue.__eq__`` as it was, with its own branch check ``_old_near``: the oracle."""
    if isinstance(other, InvariantValue):
        if approx_eq(iv.base, other.base) and (iv.genus - other.genus) % 3 == 0:
            t = (iv.genus - other.genus) // 3
            return approx_eq(iv.coeff, other.coeff * iv.base**t)
        return approx_eq(iv.cubed(), other.cubed()) and _old_near(iv, other.approx())
    if iv.genus % 3 == 0:
        return approx_eq(iv.coeff, other * iv.base ** (iv.genus // 3))
    return approx_eq(iv.cubed(), other**3) and _old_near(iv, to_complex(other))


_small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
_positive_fractions = st.builds(Fraction, st.integers(1, 4), st.integers(1, 4))


@st.composite
def _cycs(draw, nonzero=False):
    """A ``Cyc`` at level 1, 3, 4 or 8 with small rational coordinates."""
    level = draw(st.sampled_from((1, 3, 4, 8)))
    d = len(cyclotomic_poly(level)) - 1
    coords = draw(st.lists(_small_fractions, min_size=d, max_size=d).filter(lambda cs: any(cs) or not nonzero))
    return Cyc(level, coords)


def _scalars(nonzero=False):
    """An ``int``, ``Fraction``, ``Cyc`` or ``complex``."""
    ints = st.integers(-3, 3).filter(lambda n: n or not nonzero)
    fractions = _small_fractions.filter(lambda q: q or not nonzero)
    return st.one_of(ints, fractions, _cycs(nonzero), _cycs(nonzero).map(to_complex))


def _forms(x: Cyc) -> list:
    """``x`` as each scalar type that holds it: itself, its complex value, and a Fraction or int when rational."""
    out = [x, x.to_complex()]
    if x.is_rational():
        q = x.as_fraction()
        out += [q] + ([q.numerator] if q.denominator == 1 else [])
    return out


def _maybe_complex(draw, iv):
    """``iv`` with its coefficient or base, or both, drawn to be complex."""
    coeff = iv.coeff.to_complex() if draw(st.booleans()) else iv.coeff
    base = iv.base.to_complex() if draw(st.booleans()) else iv.base
    return InvariantValue(coeff, base, iv.genus)


@st.composite
def invariant_pairs(draw):
    """(kind, invariant, other side): ``other`` an invariant or a plain scalar.

    ``across-genera`` pairs coeff * base^-(g/3) with coeff * base^t * base^-((g+3t)/3);
    ``cube-base`` pairs values over bases r^3, r > 0 rational, whose cube roots
    are exact, at any genera; ``rotated`` multiplies the second of such a pair
    by a cube root of unity; ``any`` draws both sides at random.
    """
    kind = draw(st.sampled_from(("any", "across-genera", "cube-base", "rotated")))
    g = draw(st.integers(0, 7))
    if kind == "any":
        iv = InvariantValue(draw(_scalars()), draw(_scalars(nonzero=True)), g)
        other = draw(st.one_of(_scalars(), st.builds(InvariantValue, _scalars(), _scalars(nonzero=True),
                                                      st.integers(0, 7))))
        return kind, iv, other
    if kind == "across-genera":
        c, b = draw(_cycs()), draw(_cycs(nonzero=True))
        t = draw(st.integers(-(g // 3), (7 - g) // 3))
        iv, other = InvariantValue(c, b, g), InvariantValue(c * b**t, b, g + 3 * t)
        return kind, _maybe_complex(draw, iv), _maybe_complex(draw, other)
    c, r = draw(_cycs(nonzero=True)), draw(_positive_fractions)
    iv = InvariantValue(c, Cyc.rational(r**3), g)
    value = c * Cyc.rational(r) ** -g
    if kind == "rotated":
        value = value * Cyc.zeta(3, draw(st.sampled_from((1, 2))))
    if draw(st.booleans()):
        return kind, _maybe_complex(draw, iv), draw(st.sampled_from(_forms(value)))
    s, h = draw(_positive_fractions), draw(st.integers(0, 7))
    other = InvariantValue(value * Cyc.rational(s) ** h, Cyc.rational(s**3), h)
    return kind, _maybe_complex(draw, iv), _maybe_complex(draw, other)


@settings(max_examples=400, deadline=None)
@given(invariant_pairs())
def test_invariant_equality_decides_as_the_two_paths_it_replaced(pair):
    kind, iv, other = pair
    got = iv == other
    assert got == old_invariant_eq(iv, other)
    assert (other == iv) == got
    if kind != "any":
        assert got == (kind != "rotated")


@pytest.mark.parametrize("genus", range(8))
def test_an_invariant_never_equals_a_python_float(genus):
    # 1.0 is not a scalar of either backend: the float backend's values are complex
    iv = InvariantValue(8 ** (genus + 1), 8**3, genus)  # 8 * 8^g * 512^(-g/3) = 8
    assert iv == 8 and iv == 8 + 0j
    assert not iv == 8.0 and iv != 8.0 and not 8.0 == iv


@pytest.mark.parametrize("call, message", [
    (lambda: trisection_bracket(cp2(), BracketConfig(hopf.kashaev_triplet(2), evaluator="nope")),
     "unknown evaluator 'nope'"),
], ids=["unknown-evaluator"])
def test_refusals(call, message):
    with pytest.raises(TrisectError, match=f"^{re.escape(message)}$"):
        call()


# The float rule of ``approx_eq`` is 1e-9 relative, with an absolute floor of
# 1e-9 below magnitude 1.  ROADMAP item 13 replaces it with a bound on the
# rounding of each computation; these two cases pin what that must change.


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: the float rule ignores cancellation in a contraction")
def test_float_cross_check_of_a_cancelling_genus_7_bracket():
    # the exact cross-check passes; on the float backend element=-5.80e-06 and rep=-8.70e-06-3.87e-06i
    d, t = moves.stabilize(moves.stabilize(cp2())), hopf.kashaev_triplet(6)
    assert cross_check(d, BracketConfig(t)).ok
    assert cross_check(d, BracketConfig(hopf.float_triplet(t))).ok


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: the float rule ignores cancellation in a contraction")
def test_float_agreement_of_the_recorded_cancelling_genus_7_values():
    # the two float values of the test above, as recorded: a change of contraction
    # order can make that test pass by moving them, but it cannot move these
    element, rep = complex(-5.80011328566e-06, 0), complex(-8.70016992849e-06, -3.86674219044e-06)
    assert bracket.CheckReport.agreement("backend agreement", {"element": element, "rep": rep}).ok


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: the float rule's absolute floor hides small brackets")
def test_float_brackets_of_differently_scaled_integrals_differ():
    # 5.2e-12i against 4.2e-11i: both below the floor of 1e-9
    t = hopf.float_triplet(hopf.kashaev_triplet(3))
    a, b = (trisection_bracket(cp2(), BracketConfig(t, integral_scale=dict.fromkeys("ABC", z))) for z in (1e-4, 2e-4))
    assert not approx_eq(a, b)
