import re
from fractions import Fraction

import pytest

from trisect import hopf
from trisect.contraction import Node, Tensor, accumulate, contract_network, execute_plan, plan_network
from trisect.errors import NonSemisimple, ResourceExceeded, TrisectError
from trisect.groups import coset_gset, cyclic, opposite, product, symmetric
from trisect.scalars import Cyc, to_complex

ONE = Cyc.rational(1)
TWO = Cyc.rational(2)


@pytest.mark.parametrize("g", [cyclic(2), cyclic(5), symmetric(3)])
def test_group_and_function_algebra_axioms(g):
    for h in (hopf.group_algebra(g), hopf.function_algebra(g)):
        rep = hopf.check_hopf_axioms(h)
        assert max(rep.values()) == 0.0, (h.name, rep)


def test_axioms_of_a_large_algebra_are_not_capped():
    # associativity's largest step keeps 64^3 = 262,144 entries, under the default cap
    rep = hopf.check_hopf_axioms(hopf.group_algebra(cyclic(64)))
    assert list(rep.values()) == [0.0] * 8, rep


def test_the_cap_bounds_the_steps_of_an_identity_check():
    # associativity's left side over C[Z/64] keeps 64^3 = 262,144 entries in its one step
    tensors = {name: (Tensor(data), shape) for name, (data, shape) in hopf._tensors(hopf.group_algebra(cyclic(64))).items()}
    nodes, dims = hopf._network(tensors, "M i j t, M t k o")
    plan, data = plan_network(nodes, dims, "i j k o".split()), [n.data for n in nodes]
    with pytest.raises(ResourceExceeded, match=r"\(cap 262143\)$"):
        execute_plan(plan, data, cap=262_143)
    assert len(execute_plan(plan, data, cap=262_144)) == 262_144


def _set_row(table, head, row):
    """Replace the entries of a flat structure map whose key starts with ``head`` by ``row``.

    ``row`` is keyed by the rest of the key: the flat form of assigning one
    row of a nested map, so every old entry under ``head`` is gone.
    """
    for key in [k for k in table if k[:len(head)] == head]:
        del table[key]
    table.update({head + rest: c for rest, c in row.items()})


def _row(table, head):
    """The entries of a flat structure map under ``head``, keyed by the rest of the key."""
    return {k[len(head):]: c for k, c in table.items() if k[:len(head)] == head}


def _weak_action():
    return coset_gset(product(cyclic(2), opposite(cyclic(2))), [3])  # |M| = 2


def _weak_pair():
    return hopf.weak_hopf_from_action(_weak_action())


# (residual key, change): each change breaks an algebra so that the key reads
# nonzero, in the checker's key order; the strong ones apply to C[Z/3], the
# weak ones to either algebra of the |M| = 2 weak pair
STRONG_BREAKS = [
    ("associativity", lambda h: _set_row(h.mult, (1, 1), {(2,): TWO})),
    ("unitality", lambda h: setattr(h, "unit", {1: ONE})),
    ("coassociativity", lambda h: _set_row(h.comult, (1,), {(1, 1): ONE, (2, 2): ONE})),
    ("counitality", lambda h: h.counit.update({1: TWO})),
    ("comultiplicativity", lambda h: _set_row(h.comult, (1,), {(1, 2): ONE})),
    ("unit_counit_compat", lambda h: h.counit.update({1: TWO})),
    ("unit_counit_compat", lambda h: _set_row(h.comult, (0,), {(0, 0): ONE, (1, 2): ONE})),
    ("unit_counit_compat", lambda h: h.counit.update({0: TWO})),
    # no product of e_1 at all: the left side has no slice at i = 1, the right side does
    ("unit_counit_compat", lambda h: _set_row(h.mult, (1,), {})),
    ("antipode", lambda h: _set_row(h.antipode, (1,), {(2,): TWO})),
    ("antipode_involutive", lambda h: _set_row(h.antipode, (1,), {(1,): ONE})),
]
WEAK_BREAKS = [
    ("associativity", lambda h: _set_row(h.mult, min(h.mult)[:2], {(0,): TWO})),
    ("unitality", lambda h: _set_row(h.mult, min(h.mult)[:2], {(0,): TWO})),
    ("coassociativity", lambda h: _set_row(h.comult, (5,), {(b, a): c for (a, b), c in _row(h.comult, (5,)).items()})),
    ("counitality", lambda h: h.counit.update({min(h.counit): TWO})),
    ("comultiplicativity", lambda h: _set_row(h.mult, min(h.mult)[:2], {(0,): TWO})),
    ("weak_unit_coproduct", lambda h: h.unit.update({min(h.unit): TWO})),
    ("weak_counit_product", lambda h: h.counit.update({min(h.counit): TWO})),
    ("weak_antipode", lambda h: _set_row(h.antipode, (1,), {(1,): ONE})),
]


def _broken_axiom_reports():
    """(key, check_hopf_axioms report) for every break."""
    for key, change in STRONG_BREAKS:
        h = hopf.group_algebra(cyclic(3))
        change(h)
        yield key, hopf.check_hopf_axioms(h)
    for pick in (0, 1):
        for key, change in WEAK_BREAKS:
            h = _weak_pair()[pick]
            change(h)
            yield key, hopf.check_hopf_axioms(h)


def _broken_pairing_reports():
    """(keys that must read nonzero, check_skew_pairing report)."""
    t = hopf.kashaev_triplet(3)
    bad = dict(t.tau_CA)
    bad[(1, 2)] = bad[(1, 2)] + 1
    yield ["mult_left", "mult_right", "counit_left", "counit_right", "convolution_inverse"], \
        hopf.check_skew_pairing(bad, t.C, t.A)


def _broken_triplet_reports():
    """(keys that must read nonzero, check_triplet report); a pairing gains 1 at one entry."""
    for make, slot, key in (
        (lambda: hopf.kashaev_triplet(3), "tau_AB", (1, 2)),
        (lambda: hopf.kashaev_triplet(3), "tau_BC", (1, 2)),
        (lambda: hopf.kashaev_triplet(3), "tau_CA", (1, 2)),
        # the Kashaev breaks leave the cyclic identity and one counit identity intact
        (lambda: hopf.weak_triplet(cyclic(2), cyclic(2), _weak_action()), "tau_AB", None),
        (lambda: hopf.weak_triplet(cyclic(2), cyclic(2), _weak_action()), "tau_BC", None),
        (lambda: hopf.weak_triplet(cyclic(2), cyclic(2), _weak_action()), "tau_CA", None),
    ):
        t = make()
        tau = dict(getattr(t, slot))
        key = key or min(tau)
        tau[key] = tau.get(key, ONE * 0) + 1
        setattr(t, slot, tau)
        tag = slot[len("tau_"):]
        yield [f"{tag}.mult_left", f"{tag}.mult_right"], hopf.check_triplet(t)


def _broken_integral_reports():
    """(keys that must read nonzero, check_integral report)."""
    h = hopf.group_algebra(symmetric(3))
    ell = hopf.compute_integral(h)
    ell[3] = TWO
    yield ["left_integral", "right_integral", "antipode_fixes"], hopf.check_integral(h, ell)
    cross, vec = _weak_pair()
    lam, ell = hopf.weak_integrals_from_action(_weak_action())
    for alg, integral in ((cross, lam), (vec, ell)):
        bad = dict(integral)
        bad[min(bad)] = TWO
        yield ["left_integral", "right_integral"], hopf.check_integral(alg, bad)
        _set_row(alg.antipode, (min(integral),), {(next(i for i in range(alg.dim) if i not in integral),): ONE})
        yield ["antipode_fixes"], hopf.check_integral(alg, integral)


def _nonzero_keys(reports) -> set[str]:
    return {key for _, rep in reports for key, v in rep.items() if v > 0}


def test_perturbed_tensor_reports_nonzero_residual():
    # every residual key must read nonzero for some broken input: a network that
    # compares a tensor with itself would pass for ever
    for breaks, h in ((STRONG_BREAKS, hopf.group_algebra(cyclic(3))), (WEAK_BREAKS, _weak_pair()[0])):
        assert list(dict.fromkeys(key for key, _ in breaks)) == list(hopf.check_hopf_axioms(h))
    for key, rep in _broken_axiom_reports():
        assert rep[key] > 0, (key, rep)


def test_every_network_pair_reads_nonzero_on_a_broken_input(monkeypatch):
    # a key's residual is the largest over its network pairs, so one pair that
    # compares a tensor with itself would hide behind the others
    seen = set()
    residual = hopf._residual

    def record(tensors, *pair):
        value = residual(tensors, *pair)
        if value > 0:
            seen.add(pair)
        return value

    monkeypatch.setattr(hopf, "_residual", record)
    for reports in (_broken_axiom_reports(), _broken_pairing_reports(),
                    _broken_triplet_reports(), _broken_integral_reports()):
        list(reports)
    tables = (hopf._AXIOMS, hopf._STRONG_AXIOMS, hopf._WEAK_AXIOMS, hopf._PAIRING, hopf._CONVOLUTION,
              hopf._CYCLIC, hopf._INTEGRAL, hopf._WEAK_INTEGRAL, hopf._ANTIPODE_FIXES)
    missing = [(key, pair) for table in tables for key, pairs in table for pair in pairs if pair not in seen]
    assert not missing


def _per_slice_residual(tensors, out, lhs, rhs):
    """The residual as one fresh ``contract_network`` per basis element of the first open wire.

    The oracle for ``hopf._residual``, which contracts each side once, as a
    whole: each slice drops the cut wire from the node that carries it and is
    ordered on its own.
    """
    def cut(nodes, wire):
        k = next(k for k, n in enumerate(nodes) if wire in n.wires)
        pos = nodes[k].wires.index(wire)
        wires = nodes[k].wires[:pos] + nodes[k].wires[pos + 1:]
        parts = {}
        for key, val in nodes[k].data.items():
            parts.setdefault(key[pos], {})[key[:pos] + key[pos + 1:]] = val
        return {i: nodes[:k] + [Node(nodes[k].name, wires, part)] + nodes[k + 1:] for i, part in parts.items()}

    def tensor(nodes, dims, wires):
        if nodes is None:
            return {}
        t = contract_network(nodes, dims, cap=float("inf"), open_wires=wires)
        return t if wires else {(): t}

    sides = [hopf._network(tensors, spec) for spec in (lhs, rhs)]
    first, *rest = out.split() or [None]
    cuts = [cut(nodes, first) if first else {0: nodes} for nodes, _ in sides]
    worst = 0.0
    for i in cuts[0].keys() | cuts[1].keys():
        a, b = (tensor(part.get(i), dims, rest) for part, (_, dims) in zip(cuts, sides))
        for key in a.keys() | b.keys():
            diff = a.get(key, ONE * 0) - b.get(key, ONE * 0)
            if diff:
                worst = max(worst, abs(to_complex(diff)))
    return worst


def _check_reports():
    """Reports of every check on broken inputs, on the double D(S3) and on a float algebra."""
    for reports in (_broken_axiom_reports(), _broken_pairing_reports(),
                    _broken_triplet_reports(), _broken_integral_reports()):
        yield from (rep for _, rep in reports)
    s3 = hopf.group_algebra(symmetric(3))
    s3sc = hopf.cop(hopf.dual(s3))
    yield hopf.check_hopf_axioms(hopf.generalized_double(s3sc, s3, hopf.canonical_pairing(s3sc, s3)))
    yield hopf.check_triplet(hopf.group_triplet(symmetric(3), cyclic(3)))
    h = hopf.group_algebra(cyclic(3))
    STRONG_BREAKS[0][1](h)
    yield hopf.check_hopf_axioms(hopf.float_algebra(h))


def test_whole_side_residuals_equal_the_per_slice_loop(monkeypatch):
    got = list(_check_reports())
    monkeypatch.setattr(hopf, "_residual", _per_slice_residual)
    want = list(_check_reports())
    assert got == want
    assert sum(v > 0 for rep in got for v in rep.values()) > 40


def test_residual_reads_each_side_in_its_own_plan_order():
    # one network in two term orders, the second over a copy N of M: the two
    # plans key their results in different wire orders
    h = hopf.group_algebra(cyclic(3))
    tensors = {name: (Tensor(data), shape) for name, (data, shape) in hopf._tensors(h).items()}
    tensors["N"] = (Tensor(h.mult), (3, 3, 3))
    out, lhs, rhs = "i j k o", "M i j t, M t k o", "N t k o, N i j t"
    perms = [plan_network(*hopf._network(tensors, spec), open_wires=out.split()).perm for spec in (lhs, rhs)]
    assert perms[0] != perms[1]
    assert hopf._residual(tensors, out, lhs, rhs) == 0.0
    raised = dict(h.mult)
    raised[(1, 2, 0)] += 2
    tensors["N"] = (Tensor(raised), (3, 3, 3))
    assert hopf._residual(tensors, out, lhs, rhs) == 2.0


def test_dual_of_group_algebra_is_function_algebra():
    g = cyclic(4)
    d = hopf.dual(hopf.group_algebra(g))
    f = hopf.function_algebra(g)
    assert d.mult == f.mult and d.comult == f.comult
    assert d.unit == f.unit and d.counit == f.counit and d.antipode == f.antipode


def test_dual_dual_and_op_op_identity():
    h = hopf.group_algebra(symmetric(3))
    dd = hopf.dual(hopf.dual(h))
    assert dd.mult == h.mult and dd.comult == h.comult
    oo = hopf.op(hopf.op(h))
    assert oo.mult == h.mult
    cc = hopf.cop(hopf.cop(h))
    assert cc.comult == h.comult


def test_integrals_match_the_trace_formula():
    g = cyclic(4)
    ell = hopf.compute_integral(hopf.group_algebra(g))
    assert ell == {i: ONE for i in range(4)}  # sum of all group elements
    ellf = hopf.compute_integral(hopf.function_algebra(g))
    assert ellf == {0: Cyc.rational(4)}  # |G| * delta_e
    for h in (hopf.group_algebra(g), hopf.function_algebra(symmetric(3))):
        ell = hopf.compute_integral(h)
        assert h.counit_of(ell) == Cyc.rational(h.dim)
        assert max(hopf.check_integral(h, ell).values()) == 0.0


def test_nonsemisimple_rejreported_via_antipode():
    h = hopf.group_algebra(cyclic(3))
    _set_row(h.antipode, (1,), {(1,): ONE})  # no longer an involution
    with pytest.raises(NonSemisimple):
        hopf.compute_integral(h)
    # a file algebra whose antipode squares to [[1, 2], [0, 1]] has no opposite structures
    f = hopf.algebra_from_json({"dim": 2, "mult": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], "unit": [1, 0],
                                "comult": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "counit": [1, 1],
                                "antipode": [[1, 1], [0, 1]]})
    for derived in (hopf.op, hopf.cop):
        with pytest.raises(NonSemisimple, match="antipode is not involutive"):
            derived(f)


def test_kashaev_pairing_values():
    t = hopf.kashaev_triplet(4)
    assert t.tau_CA[(1, 1)] == Cyc.rational(Fraction(1, 4)) * Cyc.zeta(4)
    # counit rows: sum over the second slot equals the counit
    rowsum = sum((t.tau_CA[(0, j)] for j in range(4)), ONE * 0)
    assert rowsum == 1  # eps of delta_0 in the function algebra


def test_convolution_inverse_of_kashaev_pairing():
    n = 5
    t = hopf.kashaev_triplet(n)
    inv = hopf.convolution_inverse(t.tau_CA, t.C)
    for a in range(n):
        for b in range(n):
            assert inv[(a, b)] == Cyc.rational(Fraction(1, n)) * Cyc.zeta(n, (-a * b) % n)


def test_trivial_pairing_inverse_is_itself():
    a, b = hopf.group_algebra(cyclic(2)), hopf.group_algebra(cyclic(3))
    tau = hopf.trivial_pairing(a, b)
    assert hopf.convolution_inverse(tau, a) == tau


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_kashaev_triplet_identities(n):
    rep = hopf.check_triplet(hopf.kashaev_triplet(n))
    assert max(rep.values()) == 0.0


@pytest.mark.parametrize("c,b", [(cyclic(2), cyclic(3)), (symmetric(3), cyclic(4)), (symmetric(3), symmetric(3))])
def test_group_triplet_identities(c, b):
    t = hopf.group_triplet(c, b)
    assert t.A.dim == c.order * b.order
    rep = hopf.check_triplet(t)
    assert max(rep.values()) == 0.0


def test_group_triplet_bc_pairing_trivial():
    t = hopf.group_triplet(cyclic(2), cyclic(3))
    assert all(v == 1 for v in t.tau_BC.values())
    assert len(t.tau_BC) == 6


def test_perturbed_pairing_fails_checks():
    for keys, rep in _broken_pairing_reports():
        assert list(rep) == keys
        assert min(rep.values()) > 0, rep


def test_perturbed_triplet_fails_checks():
    reports = list(_broken_triplet_reports())
    for keys, rep in reports:
        assert all(rep[key] > 0 for key in keys), (keys, rep)
    assert _nonzero_keys(reports) == set(hopf.check_triplet(hopf.kashaev_triplet(3)))


def test_perturbed_integral_fails_checks():
    for keys, rep in _broken_integral_reports():
        assert list(rep) == ["left_integral", "right_integral", "antipode_fixes"]
        assert all(rep[key] > 0 for key in keys), (keys, rep)


def test_trivial_double_is_tensor_product():
    g2, g3 = cyclic(2), cyclic(3)
    a, b = hopf.group_algebra(g2), hopf.group_algebra(g3)
    d = hopf.generalized_double(a, b, hopf.trivial_pairing(a, b))
    for i in range(2):
        for j in range(3):
            for i2 in range(2):
                for j2 in range(3):
                    got = _row(d.mult, (i * 3 + j, i2 * 3 + j2))
                    assert got == {(g2.mul(i, i2) * 3 + g3.mul(j, j2),): ONE}


def test_double_contains_factors_as_subalgebras():
    t = hopf.kashaev_triplet(3)
    a, b = t.C, t.A
    d = hopf.generalized_double(a, b, t.tau_CA)
    nb = b.dim

    def embed_a(v):
        return {i * nb + j: c * cu for i, c in v.items() for j, cu in b.unit.items()}

    def embed_b(v):
        return {i * nb + j: cu * c for i, cu in a.unit.items() for j, c in v.items()}

    for i in range(a.dim):
        for i2 in range(a.dim):
            prod = d.product(embed_a({i: ONE}), embed_a({i2: ONE}))
            assert prod == embed_a(a.product({i: ONE}, {i2: ONE}))
    for j in range(b.dim):
        for j2 in range(b.dim):
            prod = d.product(embed_b({j: ONE}), embed_b({j2: ONE}))
            assert prod == embed_b(b.product({j: ONE}, {j2: ONE}))


def test_double_axioms_and_integral():
    t = hopf.kashaev_triplet(3)
    d = hopf.generalized_double(t.C, t.A, t.tau_CA)
    assert max(hopf.check_hopf_axioms(d).values()) == 0.0
    la, lb = hopf.compute_integral(t.C), hopf.compute_integral(t.A)
    ell = {i * t.A.dim + j: x * y for i, x in la.items() for j, y in lb.items()}
    assert max(hopf.check_integral(d, ell).values()) == 0.0


def test_drinfeld_double_of_s3():
    a = hopf.group_algebra(symmetric(3))
    asc = hopf.cop(hopf.dual(a))
    d = hopf.generalized_double(asc, a, hopf.canonical_pairing(asc, a), name="D(S3)")
    assert d.dim == 36
    assert max(hopf.check_hopf_axioms(d).values()) == 0.0


def _loop_double(a, b, tau):
    """The double with every Sweedler sum spelled out as a loop: the oracle for the network-built one."""
    na, nb = a.dim, b.dim
    tinv = hopf.convolution_inverse(tau, a)

    def idx(i, j):
        return i * nb + j

    def coproduct3(h):
        # (id x Delta) Delta(e_i) for every i, keyed by i and then by its three tensor slots
        out = {}
        for (i, x, t), c in h.comult.items():
            for (y, z), c2 in _row(h.comult, (t,)).items():
                accumulate(out.setdefault(i, {}), (x, y, z), c * c2)
        return out

    basis = tuple(f"{x}(x){y}" for x in a.basis for y in b.basis)
    aco_all, bco_all = coproduct3(a), coproduct3(b)
    lmul_a, rmul_b = {}, {}
    for (i, a2, x), cx in a.mult.items():
        lmul_a.setdefault(a2, []).append((i, x, cx))
    for (b2, j2, y), cy in b.mult.items():
        rmul_b.setdefault(b2, []).append((j2, y, cy))
    mult = {}
    for j in range(nb):
        for i2 in range(na):
            # the twist weights do not involve i or j2; group them by (a2, b2)
            pieces = {}
            for (a1, a2, a3), ca in aco_all.get(i2, {}).items():
                for (b1, b2, b3), cb in bco_all.get(j, {}).items():
                    w, w2 = tau.get((a1, b1)), tinv.get((a3, b3))
                    if w is not None and w2 is not None:
                        accumulate(pieces, (a2, b2), ca * cb * (w * w2))
            for (a2, b2), coeff in pieces.items():
                for i, x, cx in lmul_a.get(a2, ()):
                    for j2, y, cy in rmul_b.get(b2, ()):
                        accumulate(mult, (idx(i, j), idx(i2, j2), idx(x, y)), coeff * (cx * cy))
    unit = {idx(i, j): cu * cv for i, cu in a.unit.items() for j, cv in b.unit.items()}
    comult = {
        (idx(i, j), idx(a1, b1), idx(a2, b2)): ca * cb
        for (i, a1, a2), ca in a.comult.items()
        for (j, b1, b2), cb in b.comult.items()
    }
    counit = {idx(i, j): ca * cb for i, ca in a.counit.items() for j, cb in b.counit.items()}
    dd = hopf.HopfAlgebra("oracle", basis, mult, unit, comult, counit, {})
    for i in range(na):
        for j in range(nb):
            # (1 x S(f_j)) (S(e_i) x 1)
            left, right = {}, {}
            for (y,), cy in _row(b.antipode, (j,)).items():
                for iu, cu in a.unit.items():
                    accumulate(left, idx(iu, y), cy * cu)
            for (x,), cx in _row(a.antipode, (i,)).items():
                for ju, cu in b.unit.items():
                    accumulate(right, idx(x, ju), cx * cu)
            dd.antipode.update({(idx(i, j), z): c for z, c in dd.product(left, right).items()})
    return dd


def _double_inputs():
    """(a, b, tau) by name: the Kashaev, trivial and Drinfeld doubles and two group triplets' pairings."""
    out = {}
    for n in range(2, 7):
        t = hopf.kashaev_triplet(n)
        out[f"kashaev{n}"] = (t.C, t.A, t.tau_CA)
    a2, b3 = hopf.group_algebra(cyclic(2)), hopf.group_algebra(cyclic(3))
    out["trivial"] = (a2, b3, hopf.trivial_pairing(a2, b3))
    s3 = hopf.group_algebra(symmetric(3))
    s3sc = hopf.cop(hopf.dual(s3))
    out["S3"] = (s3sc, s3, hopf.canonical_pairing(s3sc, s3))
    for c, b in ((cyclic(2), cyclic(3)), (symmetric(3), cyclic(2))):
        t = hopf.group_triplet(c, b)
        out[f"CA:{c.name},{b.name}"] = (t.C, t.A, t.tau_CA)
        out[f"AB:{c.name},{b.name}"] = (t.A, t.B, t.tau_AB)
    return out


@pytest.mark.parametrize("name", list(_double_inputs()))
def test_double_matches_the_loop_oracle(name):
    a, b, tau = _double_inputs()[name]
    got, want = hopf.generalized_double(a, b, tau), _loop_double(a, b, tau)
    assert got.basis == want.basis
    for key in ("mult", "comult", "unit", "counit", "antipode"):
        assert getattr(got, key) == getattr(want, key), key


def _z2_file():
    """C[Z/2] as a structure-constant file: mult[i][j][k], comult[i][j][k], antipode[i][j]."""
    g = cyclic(2)
    return {
        "dim": 2,
        "mult": [[[1 if k == g.mul(i, j) else 0 for k in range(2)] for j in range(2)] for i in range(2)],
        "unit": [1, 0],
        "comult": [[[1 if (j, k) == (i, i) else 0 for k in range(2)] for j in range(2)] for i in range(2)],
        "counit": [1, 1],
        "antipode": [[1, 0], [0, 1]],
    }


def test_algebra_json_roundtrip():
    h = hopf.group_algebra(cyclic(2))
    h2 = hopf.algebra_from_json(_z2_file())
    assert h2.mult == h.mult and h2.comult == h.comult and h2.antipode == h.antipode
    assert max(hopf.check_hopf_axioms(h2).values()) == 0.0


@pytest.mark.parametrize("change", [
    lambda d: d.update(basis=["x"]),                        # fewer names than dim
    lambda d: d.update(basis=["x", "y", "z"]),              # more names than dim
    lambda d: d["mult"].append([[1, 0], [0, 1]]),           # an entry beyond dim
    lambda d: d["comult"][1][0].append(0),                  # a row too long
    lambda d: d["antipode"][1].pop(),                       # a row too short
    lambda d: d["unit"].append(0),
    lambda d: d.update(counit=1),                           # not an array
    lambda d: d.pop("antipode"),
    lambda d: d.update(dim=0, basis=[]),
    lambda d: d.update(dim="two"),
    lambda d: d["mult"][0][0].__setitem__(0, "1/0"),        # not a scalar
    lambda d: d["counit"].__setitem__(1, ["1", 0]),
    lambda d: d.update(dim=2.9),                            # JSON integers only: 2.9 is not 2
    lambda d: d.update(dim=True),
    lambda d: d.update(weak="false"),                       # JSON booleans only: "false" is not false
    lambda d: d.update(weak=0),
])
def test_malformed_structure_constant_file_is_rejected(change):
    data = _z2_file()
    change(data)
    with pytest.raises(TrisectError):
        hopf.algebra_from_json(data)


def test_antipode_involutive_is_exact_on_cyc_and_within_tolerance_on_complex():
    h = hopf.group_algebra(symmetric(3))
    assert h.antipode_involutive()
    tiny = Cyc.rational(Fraction(1, 10**15))
    near = hopf.group_algebra(symmetric(3))
    near.antipode[(0, 0)] = ONE + tiny
    assert not near.antipode_involutive()  # an exact difference, however small, is a difference
    fl = hopf.float_algebra(h)
    assert fl.antipode_involutive()
    fl.antipode[(0, 0)] = complex(1 + 1e-15)  # the float backend stores complex numbers
    assert fl.antipode_involutive()
    fl.antipode[(0, 0)] = complex(1.5)
    assert not fl.antipode_involutive()


@pytest.mark.parametrize("delta", [1e-15, 1e-12, 1e-6, 0.5])
@pytest.mark.parametrize("g", [cyclic(3), symmetric(3)], ids=["Z/3", "S3"])
def test_antipode_involutive_is_the_axiom_check_on_every_perturbed_entry(g, delta):
    # S^2 = id is decided once, by approx_eq, so the two readings cannot disagree
    n = g.order
    for key in ((i, j) for i in range(n) for j in range(n)):
        h = hopf.float_algebra(hopf.group_algebra(g))
        h.antipode[key] = h.antipode.get(key, 0j) + delta
        assert h.antipode_involutive() == (hopf.check_hopf_axioms(h)["antipode_involutive"] == 0.0), key
        assert h.antipode_involutive() == (delta < 1e-9), key


def test_an_exact_difference_below_the_float_range_is_a_residual():
    # 2/10^400 is 0.0 as a float; the residual still reads it, so S^2 != id on both readings
    h = hopf.group_algebra(symmetric(3))
    h.antipode[(0, 0)] = ONE + Cyc.rational(Fraction(1, 10**400))
    assert hopf.check_hopf_axioms(h)["antipode_involutive"] > 0.0
    assert not h.antipode_involutive()


@pytest.mark.parametrize("call, error, message", [
    (lambda: hopf.canonical_pairing(hopf.group_algebra(cyclic(2)), hopf.group_algebra(cyclic(3))),
     TrisectError, "canonical pairing needs matching dimensions"),
    (lambda: hopf.algebra_from_json({**_z2_file(), "unit": [True, 0]}), TrisectError, "boolean is not a scalar"),
    (lambda: hopf._network(hopf._tensors(hopf.group_algebra(cyclic(2))), "M i j"),
     ValueError, "M has 3 axes, got wires ['i', 'j']"),
    (lambda: hopf._network({**hopf._tensors(hopf.group_algebra(cyclic(2)), "1"),
                            **hopf._tensors(hopf.group_algebra(cyclic(3)), "2")}, "I1 a b, I2 b c"),
     ValueError, "wire b joins axes of dimensions 2 and 3"),
], ids=["pairing-dimensions", "boolean-entry", "network-axes", "network-wire-dimensions"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_derived_algebras_share_no_structure_dict_with_their_source():
    # tests mutate algebras in place, so a derived algebra must own its maps
    h = hopf.group_algebra(symmetric(3))
    for derived in (hopf.dual(h), hopf.op(h), hopf.cop(h), hopf.float_algebra(h)):
        for key in ("mult", "unit", "comult", "counit", "antipode"):
            assert getattr(derived, key) is not getattr(h, key), key


def test_algebra_json_keeps_small_float_entries():
    # only exact zeros are dropped: a 1e-10 entry is data, not noise
    data = {
        "dim": 2,
        "mult": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        "unit": [1.0, 0.0],
        "comult": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        "counit": [1, 1e-10],
        "antipode": [[1, 1e-10], [0, 1]],
    }
    h = hopf.algebra_from_json(data)
    assert h.unit == {0: 1.0}
    assert h.counit == {0: Cyc.rational(1), 1: 1e-10}
    assert h.antipode == {(0, 0): Cyc.rational(1), (0, 1): 1e-10, (1, 1): Cyc.rational(1)}
