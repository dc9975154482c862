import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisect import labelcount as lc
from trisect import moves
from trisect.contraction import Node
from trisect.diagram import (
    Crossing,
    Curve,
    TrisectionDiagram,
    cp2,
    cp2_embedded,
    standard_s4,
    standard_s4_disc,
    standard_s4_embedded,
)
from trisect.errors import ResourceExceeded, TrisectError
from trisect.groups import coset_gset, cyclic, opposite, product, regular_gset, symmetric
from trisect.hopf import weak_simple_reps
from trisect.scalars import Cyc


def cfg_point(c=2, b=3):
    return lc.WeakConfig(cyclic(c), cyclic(b))


def cfg_m2():
    k = product(cyclic(2), opposite(cyclic(2)))
    return lc.WeakConfig(cyclic(2), cyclic(2), coset_gset(k, [3]))


def test_red_product_of_crossing_free_curve_is_identity():
    d = TrisectionDiagram(
        1, "closed",
        (Curve("r", "red", ()), Curve("b", "blue", ()), Curve("g", "green", ())),
        (),
    )
    cfg = cfg_point()
    assert lc.red_product(d, "r", {}, cfg) == cfg.k_group.identity


def test_red_product_on_cp2():
    d = cp2()
    cfg = cfg_point(3, 4)
    # alpha crosses blue (p_ab, +1) then green (p_ca, +1): product = b * c^{-1}
    for bl in range(4):
        for gl in range(3):
            k = lc.red_product(d, "a", {"b": bl, "g": gl}, cfg)
            expect = cfg.k_group.mul(cfg.k_of_b(bl), cfg.k_of_c(cfg.c_group.inverse(gl)))
            assert k == expect
    assert lc.red_product(d, "a", {"b": 0, "g": 0}, cfg) == cfg.k_group.identity
    with pytest.raises(TrisectError):
        lc.red_product(d, "a", {"b": 0}, cfg)
    with pytest.raises(TrisectError):
        lc.red_product(d, "b", {}, cfg)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5), st.integers(0, 11), st.booleans())
def test_red_product_triviality_is_shift_and_reversal_invariant(shift, seed, flip):
    cfg = lc.WeakConfig(symmetric(3), cyclic(2))
    rng = random.Random(seed)
    labels = {
        "c1": rng.randrange(6), "c2": rng.randrange(6), "c3": rng.randrange(6),
        "b1": rng.randrange(2), "b2": rng.randrange(2), "b3": rng.randrange(2),
    }
    d = standard_s4()
    base_trivial = lc.red_product(d, "F3", labels, cfg) == cfg.k_group.identity
    d2 = moves.shift_basepoint(d, "F3", shift)
    if flip:
        d2 = moves.reverse_orientation(d2, "F3")
    got = lc.red_product(d2, "F3", labels, cfg) == cfg.k_group.identity
    assert got == base_trivial


def test_count_curve_labellings_catalog_values():
    assert lc.count_curve_labellings(standard_s4(), cfg_point(2, 3)) == 6
    assert lc.count_curve_labellings(cp2(), cfg_point(2, 2)) == 1
    assert lc.count_curve_labellings(cp2(), lc.WeakConfig(symmetric(3), cyclic(4))) == 1


def test_count_with_no_red_curves():
    d = TrisectionDiagram(
        1, "closed",
        (Curve("b", "blue", ("x",)), Curve("g", "green", ("x",)), Curve("r", "red", ())),
        (Crossing("x", 1, (("b", 0), ("g", 0))),),
    )
    cfg = cfg_point(3, 4)
    # the red curve is crossing-free, every green/blue labelling counts
    assert lc.count_curve_labellings(d, cfg) == 3 * 4


def test_count_admissible_catalog():
    cfg = cfg_m2()
    assert lc.count_admissible(standard_s4_embedded(), cfg) == 2 * 4
    assert lc.count_admissible(cp2_embedded(), cfg) == 2
    for m in range(2):
        assert lc.count_admissible(standard_s4_disc(), cfg, boundary_label=m) == 4
    with pytest.raises(TrisectError):
        lc.count_admissible(standard_s4_disc(), cfg)  # boundary label required


def test_factorization_property():
    for cfg in (cfg_point(2, 2), cfg_m2(), lc.WeakConfig(cyclic(3), cyclic(2))):
        for e, d in ((standard_s4_embedded(), standard_s4()), (cp2_embedded(), cp2())):
            assert lc.count_admissible(e, cfg) == cfg.msize * lc.count_curve_labellings(d, cfg)


def test_averaged_evaluation_closed_form():
    cfg = cfg_m2()
    av = lc.averaged_evaluation(standard_s4_disc(), cfg, boundary_label=0)
    assert av == Cyc.rational(4 * 4**3)
    assert lc.averaged_evaluation(cp2_embedded(), cfg) == Cyc.rational(2 * 4)


def test_brute_force_oracle_matches_average():
    for cfg in (cfg_point(2, 2), cfg_m2()):
        assert lc.averaged_by_brute_force(cp2_embedded(), cfg) == lc.averaged_evaluation(cp2_embedded(), cfg)


def test_boundary_label_without_a_boundary_region_is_rejected():
    # the network ignored such a label and the region enumeration matched no
    # labelling, so the two paths read 4 and 0 for the same call
    cfg = cfg_point(2, 2)
    with pytest.raises(TrisectError, match="no boundary region"):
        lc.averaged_evaluation(cp2_embedded(), cfg, 0)
    with pytest.raises(TrisectError, match="no boundary region"):
        lc.averaged_by_brute_force(cp2_embedded(), cfg, 0)


def test_brute_force_single_labelling_values():
    cfg = cfg_point(2, 2)
    reps = weak_simple_reps(cfg.mset)
    labels = {"b": 0, "g": 0}
    total = sum(
        (rep.dim * lc.brute_force_evaluation(cp2_embedded(), cfg, labels, {"a": rep}) for rep in reps),
        Cyc.rational(0),
    )
    # identity labelling contributes |B||C| = |K|; nontrivial labellings nothing
    assert total == Cyc.rational(4)
    bad = {"b": 1, "g": 0}
    total_bad = sum(
        (rep.dim * lc.brute_force_evaluation(cp2_embedded(), cfg, bad, {"a": rep}) for rep in reps),
        Cyc.rational(0),
    )
    assert total_bad == Cyc.rational(0)


def test_group_count_invariant_values():
    cfg = cfg_point(2, 3)
    assert lc.group_count_invariant(standard_s4(), cfg) == 1
    iv = lc.group_count_invariant(cp2(), cfg)
    assert abs(iv.approx() - 6 ** (-1 / 3)) < 1e-12
    cfg2 = cfg_m2()
    assert lc.group_count_invariant(standard_s4(), cfg2) == 2  # |M| x 1
    assert lc.group_count_invariant(standard_s4_embedded(), cfg2) == 2


def test_group_count_invariant_move_invariance():
    cfg = lc.WeakConfig(cyclic(3), cyclic(2))
    base = lc.group_count_invariant(cp2(), cfg)
    d = cp2()
    d = moves.two_point_insert(d, "a", 1, "g", 0, -1)
    d = moves.shift_basepoint(d, "b", 1)
    d = moves.reverse_orientation(d, "g")
    d = moves.three_point_flip(d, "p_ab", "p_bc", "p_ca")
    d = moves.stabilize(d)
    s = standard_s4()
    base4 = lc.group_count_invariant(s, cfg)
    assert lc.group_count_invariant(moves.handle_slide(s, "F1", "F2", 0, 0, 1), cfg) == base4
    assert lc.group_count_invariant(d, cfg) == base


def test_coincidence_check():
    for cfg in (cfg_point(2, 3), cfg_m2()):
        for d in (standard_s4(), cp2(), moves.stabilize(cp2())):
            assert lc.coincidence_check(d, cfg).ok


def test_nonabelian_counting_works():
    cfg = lc.WeakConfig(symmetric(3), cyclic(2))
    assert lc.count_curve_labellings(standard_s4(), cfg) == 12  # b_1, c_2 free
    assert lc.coincidence_check(standard_s4(), cfg).ok


# point and coset configurations; S3 as C or as B makes K non-abelian
def _coset(c, b, gens):
    return lc.WeakConfig(c, b, coset_gset(product(c, opposite(b)), gens))


_CONFIGS = (
    cfg_point(2, 3),
    lc.WeakConfig(symmetric(3), cyclic(2)),
    lc.WeakConfig(cyclic(3), symmetric(3)),
    cfg_m2(),
    _coset(cyclic(2), symmetric(3), [1]),
    _coset(symmetric(3), cyclic(3), [3]),
)


def _one_red_through_three_and_three():
    """One red curve crossing three green curves, then three blue ones.

    A chain multiplied in reverse order, or in B instead of B^op, accepts a
    different set of labellings here.  On the catalog diagrams under random
    moves it accepted the same set in each of 300 seeded move sequences.
    """
    curves = [Curve("r", "red", ("x1", "x2", "x3", "y1", "y2", "y3"))]
    curves += [Curve(f"g{i}", "green", (f"x{i}",)) for i in (1, 2, 3)]
    curves += [Curve(f"b{i}", "blue", (f"y{i}",)) for i in (1, 2, 3)]
    crossings = [Crossing(f"x{i}", 1, (("r", i - 1), (f"g{i}", 0))) for i in (1, 2, 3)]
    crossings += [Crossing(f"y{i}", -1, (("r", i + 2), (f"b{i}", 0))) for i in (1, 2, 3)]
    return TrisectionDiagram(3, "closed", tuple(curves), tuple(crossings))


_BASES = (cp2(), standard_s4(), moves.stabilize(cp2()), _one_red_through_three_and_three())


def _check_space(d, cfg, cap=200_000):
    """Cap the depth-first search the network count replaced by its search space."""
    space = math.prod(
        cfg.c_group.order if c.color == "green" else cfg.b_group.order for c in d.curves if c.color != "red"
    )
    if space > cap:
        raise ResourceExceeded(space, cap, "labellings to enumerate")


def _weights(dims, seed):
    """A random positive weight for every value of every curve and region label."""
    rng = random.Random(seed)
    labels = sorted(var for var in dims if var.startswith(("label:", "region:")))
    return {var: [rng.randint(1, 1000) for _ in range(dims[var])] for var in labels}


def _weighted_by_network(nodes, dims, weights):
    """The network's sum over labellings of the product of the weights of their values.

    Weights tell apart two sets of labellings of the same size.  A chain
    multiplied in reverse order accepts exactly the inverses of the right
    labellings, so its plain count is always right.
    """
    extra = [Node(f"weight:{var}", (var,), {(x,): w for x, w in enumerate(ws)}) for var, ws in weights.items()]
    return lc._count(nodes + extra, dims)


def _weight(weights, labels, name):
    return math.prod(weights[name(key)][value] for key, value in labels.items())


@settings(max_examples=100, deadline=None)
@example(1, 3, 0, 0)  # S3 x Z/2: a reversed chain or no inverse at a sign reads differently
@example(2, 3, 0, 0)  # Z/3 x S3: so does B in place of B^op
@given(
    st.sampled_from(range(len(_CONFIGS))),
    st.sampled_from(range(len(_BASES))),
    st.integers(0, 2**32 - 1),
    st.integers(0, 8),
)
def test_network_count_matches_the_depth_first_search(config, base, seed, steps):
    cfg, d = _CONFIGS[config], _BASES[base]
    rng = random.Random(seed)
    for _ in range(steps):
        _, d = moves.random_move(d, rng, max_visits=4)
    _check_space(d, cfg)
    found = list(lc.iter_curve_labellings(d, cfg))
    assert lc.count_curve_labellings(d, cfg) == len(found)
    nodes, dims = lc._curve_network(d, cfg)
    weights = _weights(dims, seed)
    want = sum(_weight(weights, labels, lc._label) for labels in found)
    assert _weighted_by_network(nodes, dims, weights) == want


@pytest.mark.parametrize("config", range(len(_CONFIGS)))
def test_count_admissible_matches_the_enumeration(config):
    cfg = _CONFIGS[config]
    disc = standard_s4_disc()
    cases = [(standard_s4_embedded(), None), (cp2_embedded(), None)] + [(disc, m) for m in range(cfg.msize)]
    for e, m in cases:
        found = [
            (labels, regions)
            for labels in lc.iter_curve_labellings(e.base, cfg)
            for regions in lc.iter_region_labellings(e, labels, cfg, m)
        ]
        assert lc.count_admissible(e, cfg, boundary_label=m) == len(found)
        nodes, dims = lc._admissible_network(e, cfg, m)
        weights = _weights(dims, config)
        want = sum(
            _weight(weights, labels, lc._label) * _weight(weights, regions, lc._region)
            for labels, regions in found
        )
        assert _weighted_by_network(nodes, dims, weights) == want
    with pytest.raises(TrisectError):
        lc.count_admissible(disc, cfg, boundary_label=cfg.msize)


def test_genus_ten_count_runs_through_the_network():
    # the depth-first search does not finish this case
    d = cp2()
    while d.genus < 10:
        d = moves.stabilize(d)
    cfg = lc.WeakConfig(symmetric(4), symmetric(3))
    start = time.perf_counter()
    assert lc.count_curve_labellings(d, cfg) == 144**3
    assert time.perf_counter() - start < 1.0


def test_brute_force_oracles_are_capped_up_front():
    # 3^3 green and 3^3 blue labellings times 9^3 red representations
    cfg = lc.WeakConfig(cyclic(3), cyclic(3))
    start = time.perf_counter()
    with pytest.raises(ResourceExceeded, match="labellings to enumerate") as exc:
        lc.averaged_by_brute_force(standard_s4_embedded(), cfg)
    assert exc.value.cost == 3**3 * 3**3 * 9**3 > lc.BRUTE_FORCE_CAP
    # 18^4 region labellings of the four regions
    big = lc.WeakConfig(cyclic(3), cyclic(6), regular_gset(product(cyclic(3), opposite(cyclic(6)))))
    with pytest.raises(ResourceExceeded, match="labellings to enumerate") as exc:
        lc.brute_force_evaluation(standard_s4_embedded(), big, {}, {})
    assert exc.value.cost == 18**4
    assert time.perf_counter() - start < 1.0
