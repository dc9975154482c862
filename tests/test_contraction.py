import gc
import itertools
import random
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import bracket, contraction, hopf, moves
from trisect.contraction import DEFAULT_CAP, Node, contract_network, execute_plan, int_entries, plan_network
from trisect.diagram import cp2
from trisect.errors import ResourceExceeded
from trisect.groups import symmetric
from trisect.scalars import Cyc

ONE = Cyc.rational(1)
ZERO = Cyc.rational(0)
VALUES = [Cyc.rational(q) for q in (-2, -1, 1, 3)] + [Cyc.zeta(3), ONE + Cyc.zeta(4)]


def random_network(rng: random.Random, prefix: str) -> tuple[list[Node], dict[str, int]]:
    """Up to three nodes and three wires; a wire sits on one node (open), two or three."""
    count = rng.randint(1, 3)
    node_wires: list[list[str]] = [[] for _ in range(count)]
    dims = {}
    for w in range(rng.randint(1, 3)):
        name = f"{prefix}{w}"
        dims[name] = rng.randint(1, 3)
        owners = rng.sample(range(count), min(count, rng.choice((1, 2, 2, 3))))
        for k in owners:
            node_wires[k].append(name)
    nodes = []
    for k, wires in enumerate(node_wires):
        keys = itertools.product(*(range(dims[w]) for w in wires))
        data = {key: rng.choice(VALUES) for key in keys if rng.random() < 0.7}
        nodes.append(Node(f"{prefix}n{k}", tuple(wires), data))
    return nodes, dims


def brute_force(nodes: list[Node], dims: dict[str, int], open_wires: list[str]) -> dict:
    """Sum of node products over every assignment of every wire."""
    wires = sorted(dims)
    out: dict = {}
    for values in itertools.product(*(range(dims[w]) for w in wires)):
        at = dict(zip(wires, values))
        term = ONE
        for n in nodes:
            v = n.data.get(tuple(at[w] for w in n.wires))
            if v is None:
                break
            term = term * v
        else:
            key = tuple(at[w] for w in open_wires)
            out[key] = out.get(key, ZERO) + term
    return {k: v for k, v in out.items() if v}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_open_wire_contraction_matches_brute_force(seed):
    rng = random.Random(seed)
    # two networks on disjoint wires: at least two connected components
    nodes_p, dims_p = random_network(rng, "p")
    nodes_q, dims_q = random_network(rng, "q")
    # about half the nodes through int_entries: int storage of integer entries, coerced back to Cyc
    nodes = [Node(n.name, n.wires, int_entries(n.data)) if rng.random() < 0.5 else n for n in nodes_p + nodes_q]
    dims = {**dims_p, **dims_q}
    ends = [w for n in nodes for w in n.wires]
    open_wires = [w for w in sorted(dims) if ends.count(w) == 1]
    rng.shuffle(open_wires)
    want = brute_force(nodes, dims, open_wires)
    got = contract_network(nodes, dims, open_wires=open_wires)
    if open_wires:
        assert got == want
    else:
        assert got == want.get((), ZERO)
    assert all(type(v) is Cyc for v in (got.values() if open_wires else [got]))
    # the unboxed result is keyed in the order of open_wires too, whatever order the steps leave
    raw = execute_plan(plan_network(nodes, dims, open_wires=open_wires), [n.data for n in nodes])
    if open_wires:
        assert raw.keys() == got.keys() and all(raw[key] == val for key, val in got.items())
    else:
        assert raw.get((), 0) == got


def test_open_wires_follow_the_requested_order():
    m = Node("m", ("a", "b"), {(0, 1): ONE, (1, 0): Cyc.rational(2)})
    v = Node("v", ("c",), {(1,): Cyc.rational(3)})
    dims = {"a": 2, "b": 2, "c": 2}
    assert contract_network([m, v], dims, open_wires=("a", "b", "c")) == {
        (0, 1, 1): Cyc.rational(3), (1, 0, 1): Cyc.rational(6),
    }
    assert contract_network([m, v], dims, open_wires=("c", "b", "a")) == {
        (1, 1, 0): Cyc.rational(3), (1, 0, 1): Cyc.rational(6),
    }


def test_unlisted_open_wire_is_rejected():
    nodes = [Node("m", ("a", "b"), {(0, 0): ONE}), Node("v", ("a",), {(0,): ONE})]
    with pytest.raises(AssertionError):
        contract_network(nodes, {"a": 1, "b": 1})


def test_cap_bounds_the_open_wires():
    # two full vectors on open wires: their outer product keeps 9 entries
    nodes = [Node(name, (w,), {(i,): ONE for i in range(3)}) for name, w in (("u", "a"), ("v", "b"))]
    with pytest.raises(ResourceExceeded, match=r"^needs 9 or more entries in a contraction intermediate \(cap 8\)$"):
        contract_network(nodes, {"a": 3, "b": 3}, cap=8, open_wires=("a", "b"))
    assert len(contract_network(nodes, {"a": 3, "b": 3}, cap=9, open_wires=("a", "b"))) == 9


def test_float_values_are_never_dropped_for_being_small():
    nodes = [Node("u", ("a",), {(0,): 1e-10 + 0j}), Node("v", ("a",), {(0,): 1e-10 + 0j})]
    assert contract_network(nodes, {"a": 1}) == pytest.approx(1e-20)


class Word:
    """A formal sum of words: its product records the order of the factors."""

    def __init__(self, *words):
        self.terms = Counter(words)

    def __mul__(self, other):
        out = Word()
        for x, m in self.terms.items():
            for y, n in other.terms.items():
                out.terms[x + y] += m * n
        return out

    def __add__(self, other):
        out = Word()
        out.terms = self.terms + other.terms
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return self.terms == other.terms


@pytest.mark.parametrize("larger_first", [True, False])
def test_pair_keeps_wire_and_operand_order_whichever_operand_is_larger(larger_first):
    # the engine buckets the operand with fewer entries; "a" comes first by name
    full = [(x, y) for x in range(3) for y in range(2)]
    a_keys = full if larger_first else [(0, 0), (2, 1)]
    b_keys = [(0, 0), (1, 2)] if larger_first else [(s, j) for j, s in full]
    a = Node("a", ("i", "s"), {(i, s): Word(f"a{i}{s}") for i, s in a_keys})
    b = Node("b", ("s", "j"), {(s, j): Word(f"b{s}{j}") for s, j in b_keys})
    got = contract_network([b, a], {"i": 3, "s": 2, "j": 3}, open_wires=("i", "j"))
    want: dict = {}
    for i, s in a_keys:
        for s2, j in b_keys:
            if s == s2:
                want.setdefault((i, j), Word()).terms[f"a{i}{s}b{s}{j}"] += 1
    assert len(a.data) > len(b.data) if larger_first else len(a.data) < len(b.data)
    assert got == want


def _value(kind: str, rng: random.Random, name: str):
    if kind == "exact":
        return rng.choice(VALUES)
    if kind == "complex":
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return Word(name)


def shared_tensor_network(rng: random.Random, kind: str):
    """One dense-ish three-wire tensor on one or two nodes, met by sparse nodes.

    Each sparse node shares one or two wires with the first copy of the
    tensor, at any of its positions, and has at most two entries, so the
    tensor is the larger operand of the step that first reaches it.  Wires
    on one node only are open, in a random order.
    """
    big_wires = ["x0", "x1", "x2"]
    dims = {w: rng.randint(2, 3) for w in big_wires}
    keys = itertools.product(*(range(dims[w]) for w in big_wires))
    # insertion order unlike the key order, so an index that regrouped the
    # keys by value would change the order of the sums
    keys = [key for key in keys if rng.random() < 0.8]
    rng.shuffle(keys)
    data = {key: _value(kind, rng, f"t{key}") for key in keys}
    nodes = [("t0", tuple(big_wires), data)]
    # every wire of the first copy meets at most one other node
    free = rng.sample(big_wires, 3)
    if rng.random() < 0.5:
        # a second copy, sharing one wire at the same position
        pos = big_wires.index(free.pop())
        wires = [w if k == pos else f"y{k}" for k, w in enumerate(big_wires)]
        dims.update((f"y{k}", dims[w]) for k, w in enumerate(big_wires) if k != pos)
        nodes.append(("t1", tuple(wires), data))
    for s in range(rng.randint(1, 2)):
        if not free:
            break
        wires = [free.pop() for _ in range(min(len(free), rng.randint(1, 2)))]
        if rng.random() < 0.5:
            wires.append(f"z{s}")
            dims[f"z{s}"] = 2
        entries = [tuple(rng.randrange(dims[w]) for w in wires) for _ in range(2)]
        nodes.append((f"s{s}", tuple(wires), {key: _value(kind, rng, f"s{s}{key}") for key in entries}))
    ends = [w for _, wires, _ in nodes for w in wires]
    open_wires = [w for w in sorted(set(ends)) if ends.count(w) == 1]
    rng.shuffle(open_wires)
    return nodes, dims, open_wires


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["exact", "complex", "word"]))
def test_shared_tensor_contracts_exactly_as_plain_data(seed, kind):
    rng = random.Random(seed)
    spec, dims, open_wires = shared_tensor_network(rng, kind)
    shared = int_entries(spec[0][2])
    fast = [Node(name, wires, shared if data is spec[0][2] else data) for name, wires, data in spec]
    slow = [Node(name, wires, dict(data)) for name, wires, data in spec]
    want = contract_network(slow, dims, open_wires=open_wires)
    # twice through one memo: a join of two nodes' data is kept, then served
    joins: dict = {}
    for _ in range(2):
        got = contract_network(fast, dims, open_wires=open_wires, joins=joins)
        if open_wires:
            # the same items in the same order: every sum is taken in the same order
            assert list(got.items()) == list(want.items())
        else:
            assert got == want


def test_results_of_integer_tensors_are_cyc():
    # int_entries keeps level-1 integer entries as int; every result, served by the memo or not, is coerced back to Cyc
    m = int_entries({(0, 1): ONE, (1, 0): Cyc.rational(2)})
    v = int_entries({(0,): ONE, (1,): Cyc.rational(3)})
    dims, joins, empty = {"a": 2, "b": 2}, {}, {}
    for memo in (None, joins, joins):
        scalar = contract_network([Node("m", ("a", "b"), m), Node("u", ("a",), v), Node("w", ("b",), v)], dims, joins=memo)
        assert type(scalar) is Cyc and scalar == 9
        vector = contract_network([Node("m", ("a", "b"), m), Node("v", ("b",), v)], dims, open_wires=("a",), joins=memo)
        assert vector == {(0,): 3, (1,): 2} and all(type(x) is Cyc for x in vector.values())
        zero = contract_network([Node("m", ("a", "b"), m), Node("u", ("a",), v), Node("z", ("b",), empty)], dims, joins=memo)
        assert type(zero) is Cyc and not zero
    assert type(contract_network([], {})) is Cyc


def test_tensor_leaves_the_callers_dict_untouched():
    data = {(0,): ONE, (1,): Cyc.zeta(3), (2,): Cyc.rational(Fraction(1, 2)), (3,): 0.5j}
    t = int_entries(data)
    assert all(type(x) is Cyc for k, x in data.items() if k != (3,))
    assert type(t[(0,)]) is int and t[(0,)] == 1
    assert t == data and [type(t[k]) for k in ((1,), (2,), (3,))] == [Cyc, Cyc, complex]


# ---------------------------------------------------------------------------
# the pairwise step against the step that builds every key with a scan


def _scanning_contract_pair(a: dict, b: dict, sh_a, keep_a, sh_b, keep_b) -> dict:
    """``contraction._contract_pair`` with each key built by a scan over its positions, ``accumulate`` not inlined."""
    bucket_a = len(a) < len(b)
    if bucket_a:
        small, pos_sh_s, pos_keep_s, large, pos_sh_l, pos_keep_l = a, sh_a, keep_a, b, sh_b, keep_b
    else:
        small, pos_sh_s, pos_keep_s, large, pos_sh_l, pos_keep_l = b, sh_b, keep_b, a, sh_a, keep_a

    buckets: dict[tuple, list] = {}
    for key, val in small.items():
        sh = tuple([key[p] for p in pos_sh_s])
        buckets.setdefault(sh, []).append((tuple([key[p] for p in pos_keep_s]), val))

    out: dict[tuple[int, ...], object] = {}
    for key, val in large.items():
        hits = buckets.get(tuple([key[p] for p in pos_sh_l]))
        if not hits:
            continue
        mine = tuple([key[p] for p in pos_keep_l])
        for other, oval in hits:
            if bucket_a:
                contraction.accumulate(out, other + mine, oval * val)
            else:
                contraction.accumulate(out, mine + other, val * oval)
    return out


def _pair_value(kind: str, rng: random.Random, name: str):
    if kind == "exact":
        # a level-1 integer Cyc, which int_entries stores as int, a plain int, or another Cyc
        return rng.choice(VALUES + [-1, 2])
    return _value(kind, rng, name)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from(["exact", "complex", "word"]), st.booleans(), st.booleans())
def test_pair_step_is_the_scanning_step(seed, shared, kept_a, kept_b, kind, tensor_a, tensor_b):
    # shared and kept position lists of length 0, 1 (a getter of one position
    # must still give a 1-tuple) and more; keep_a may name a shared position,
    # as it does for a wire that a third node still carries
    rng = random.Random(seed)
    dims = {f"s{k}": rng.randint(1, 3) for k in range(shared)}
    wires_a = list(dims) + [f"a{k}" for k in range(max(0, kept_a - shared))]
    wires_b = list(dims) + [f"b{k}" for k in range(kept_b)]
    dims.update((w, rng.randint(1, 3)) for w in wires_a + wires_b if w not in dims)
    rng.shuffle(wires_a)
    rng.shuffle(wires_b)
    sh_a = [wires_a.index(w) for w in wires_a if w[0] == "s"]
    sh_b = [wires_b.index(w) for w in wires_a if w[0] == "s"]
    keep_a = rng.sample(range(len(wires_a)), kept_a)
    keep_b = rng.sample([p for p in range(len(wires_b)) if p not in sh_b], kept_b)

    def operand(wires, name: str, tensor: bool) -> dict:
        keys = list(itertools.product(*(range(dims[w]) for w in wires)))
        density = rng.random()
        keys = [key for key in keys if rng.random() < density]
        rng.shuffle(keys)
        data = {key: _pair_value(kind, rng, f"{name}{key}") for key in keys}
        return int_entries(data) if tensor else data

    a, b = operand(wires_a, "a", tensor_a), operand(wires_b, "b", tensor_b)
    for args in ((a, b, sh_a, keep_a, sh_b, keep_b), (b, a, sh_b, keep_b, sh_a, keep_a)):
        # the same keys and values in the same order: every sum is taken in the same order
        got = contraction._contract_pair(*args, DEFAULT_CAP)
        assert list(got.items()) == list(_scanning_contract_pair(*args).items())


# ---------------------------------------------------------------------------
# the planner against the planner that rescans every pair at every step


def _rescanning_plan_component(wires: tuple, dims: tuple, est: tuple, sparse: bool = True):
    """The greedy order of a component's shape, found by rescoring every pair of live operands at every step.

    With ``sparse`` it ranks pairs as ``contraction._plan_component`` does,
    which keeps the scores between steps and must find the same order: by
    estimated entries less those of the operands, then by dense size.
    Without, it ranks them by dense size alone: an order whose values the
    planner's must equal.
    Either way, equal pairs fall to the join trees of their operands, the
    earlier one first, each written as a string: node k as the character
    U+0100 + k and a join as "(a*b)", so a joined operand comes before every
    node.
    """
    live = list(range(len(wires)))
    wires, est, steps = list(wires), list(est), []
    tree = [chr(0x100 + k) for k in live]
    # how many of the live operands carry each wire; a wire is summed when
    # the last two that carry it are joined
    carriers = Counter(w for wk in wires for w in wk)
    while len(live) > 1:
        best = None
        # live stays in increasing order: a joined operand is numbered after every other
        for i in range(len(live)):
            wi, ei = wires[live[i]], est[live[i]]
            for j in range(i + 1, len(live)):
                wj, ej = wires[live[j]], est[live[j]]
                shared = [w for w in wi if w in wj]
                if not shared:
                    continue
                kept = [w for w in wi if w not in wj or carriers[w] > 2]
                kept += [w for w in wj if w not in wi]
                dense = contraction._dense_size(kept, dims)
                size = max(1, min(ei * ej // contraction._dense_size(shared, dims), dense))
                score = (size - ei - ej, dense) if sparse else (dense,)
                key = (*score, tree[live[i]], tree[live[j]])
                if best is None or key < best[0]:
                    best = (key, i, j, size)
        _, i, j, size = best
        a, b = live[i], live[j]
        summed = []
        for w in wires[a]:
            if w in wires[b]:
                carriers[w] -= 1
                if carriers[w] == 1:
                    summed.append(w)
        live = [k for n, k in enumerate(live) if n not in (i, j)]
        live.append(contraction._plan_step(a, b, summed, size, wires, est, steps))
        tree.append(f"({tree[a]}*{tree[b]})")
    return tuple(steps), live[0], wires[live[0]]


def _dense_plan_component(*args):
    return _rescanning_plan_component(*args, sparse=False)


@contextmanager
def planner(plan_component):
    """``contraction`` with ``plan_component`` in place of its own ``_plan_component``.

    The plan cache is cleared on entry and on exit, so that a cached
    ``plan_component`` starts cold, and no plan made inside outlives it.
    """
    kept = contraction._plan_component
    kept.cache_clear()
    contraction._plan_component = plan_component
    try:
        yield
    finally:
        contraction._plan_component = kept
        kept.cache_clear()


def planned(nodes, dims, open_wires=(), rescanning=False):
    """``plan_network``'s plan from a cold plan cache; with the rescanning planner if asked."""
    with planner(_rescanning_plan_component if rescanning else contraction._plan_component):
        return plan_network(nodes, dims, open_wires)


def planner_network(rng: random.Random) -> tuple[list[Node], dict[str, int], list[str]]:
    """Names, wires, dims and entry counts, in one to three parts on disjoint wires.

    A wire sits on one node (open) up to four; the dims are often all equal,
    so that equal scores fall to the names, and a name can repeat.  Each node
    has from one entry up to its dense size, capped at 64, so the estimates
    differ.
    """
    nodes, dims = [], {}
    for part in "pqr"[: rng.randint(1, 3)]:
        count = rng.randint(1, 8)
        wire_lists: list[list[str]] = [[] for _ in range(count)]
        sizes = rng.choice(((2,), (2,), (1, 2, 3), (2, 4)))
        for w in range(rng.randint(1, 10)):
            name = f"{part}{w}"
            dims[name] = rng.choice(sizes)
            for k in rng.sample(range(count), min(count, rng.choice((1, 2, 2, 3, 3, 4)))):
                wire_lists[k].append(name)
        for k, wires in enumerate(wire_lists):
            name = f"{part}n{rng.randrange(count) if rng.random() < 0.2 else k}"
            entries = rng.randint(1, min(64, contraction._dense_size(wires, dims)))
            keys = itertools.product(*(range(dims[w]) for w in wires))
            nodes.append(Node(name, tuple(wires), dict.fromkeys(itertools.islice(keys, entries), ONE)))
    rng.shuffle(nodes)
    ends = [w for n in nodes for w in n.wires]
    open_wires = [w for w in dims if ends.count(w) == 1]
    rng.shuffle(open_wires)
    return nodes, dims, open_wires


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_plans_are_those_of_the_rescanning_planner(seed):
    nodes, dims, open_wires = planner_network(random.Random(seed))
    assert planned(nodes, dims, open_wires) == planned(nodes, dims, open_wires, rescanning=True)


@pytest.mark.parametrize("triplet", ["kashaev:n=3", "S4xS3"])
def test_bracket_plans_are_those_of_the_rescanning_planner(monkeypatch, triplet):
    # every network of seeded random-move walks on cp2 stabilized to genus 7
    networks = []
    monkeypatch.setattr(bracket, "contract_network", lambda nodes, dims, cap, joins: networks.append((nodes, dims)) or 1)
    if triplet == "S4xS3":
        cfg = bracket.BracketConfig(hopf.group_triplet(symmetric(4), symmetric(3)))
    else:
        cfg = bracket.BracketConfig(hopf.kashaev_triplet(3))
    start = cp2()
    while start.genus < 7:
        start = moves.stabilize(start)
    for seed in range(3):
        rng, d = random.Random(seed), start
        for _ in range(4):
            _, d = moves.random_move(d, rng)
            bracket.trisection_bracket(d, cfg)
    assert len(networks) == 12
    for nodes, dims in networks:
        assert planned(nodes, dims) == planned(nodes, dims, rescanning=True)


def sparse_network(rng: random.Random) -> tuple[list[Node], dict[str, int], list[str]]:
    """Three to seven nodes of exact entries at mixed densities, about half of them through ``int_entries``.

    A wire sits on one node (open) up to three; the open wires come in a
    random order.
    """
    count = rng.randint(3, 7)
    node_wires: list[list[str]] = [[] for _ in range(count)]
    dims = {}
    for w in range(rng.randint(2, 8)):
        dims[f"w{w}"] = rng.randint(1, 3)
        for k in rng.sample(range(count), rng.choice((1, 2, 2, 3))):
            node_wires[k].append(f"w{w}")
    nodes = []
    for k, wires in enumerate(node_wires):
        density = rng.choice((0.1, 0.3, 0.7, 1.0))
        keys = itertools.product(*(range(dims[w]) for w in wires))
        data = {key: rng.choice(VALUES) for key in keys if rng.random() < density}
        nodes.append(Node(f"n{k}", tuple(wires), int_entries(data) if rng.random() < 0.5 else data))
    ends = [w for n in nodes for w in n.wires]
    open_wires = [w for w in dims if ends.count(w) == 1]
    rng.shuffle(open_wires)
    return nodes, dims, open_wires


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_values_are_those_of_the_dense_order(seed):
    # the order by dense size alone is the oracle: a new order must not change an exact value
    nodes, dims, open_wires = sparse_network(random.Random(seed))
    got = contract_network(nodes, dims, open_wires=open_wires)
    with planner(_dense_plan_component):
        want = contract_network(nodes, dims, open_wires=open_wires)
    assert got == want


@pytest.mark.parametrize("seed", [1, 4, 12])
def test_walks_the_dense_order_refused_are_evaluated(seed):
    # S4 x S3 on cp2 after random moves up to the second two-point insert:
    # the largest step of each keeps 3,456 entries, though an order by dense
    # size alone needed steps of dense size 11,943,936 or 17,915,904
    cfg = bracket.BracketConfig(hopf.group_triplet(symmetric(4), symmetric(3)))
    rng, d, inserts = random.Random(seed), cp2(), 0
    while inserts < 2:
        spec, d = moves.random_move(d, rng)
        inserts += spec.variant == "two_point_insert"
    assert bracket.invariant(d, cfg) == bracket.invariant(cp2(), cfg)


def test_a_dense_ring_over_the_cap_is_refused_in_its_first_step():
    # twelve nodes in a ring, each a full 4 x 4 matrix: every join keeps 16
    # entries, and the first is stopped at the first count over the cap, 12
    dims = {f"r{k}": 4 for k in range(12)}
    full = {(i, j): ONE for i in range(4) for j in range(4)}
    nodes = [Node(f"n{k}", (f"r{k}", f"r{(k + 1) % 12}"), dict(full)) for k in range(12)]
    start = time.perf_counter()
    with pytest.raises(ResourceExceeded, match=r"^needs 12 or more entries in a contraction intermediate \(cap 10\)$"):
        contract_network(nodes, dims, cap=10)
    assert time.perf_counter() - start < 0.1
    assert planned(nodes, dims) == planned(nodes, dims, rescanning=True)


# ---------------------------------------------------------------------------
# the planner against the planner that knew the cap, ranking a pair over it last


def _parent_plan_component(wires: tuple, dims: tuple, est: tuple, cap, scored: list) -> tuple[tuple, int, tuple]:
    """The greedy order of one connected component, as the planner that knew the cap found it.

    It ranks a pair whose dense size is over ``cap`` after every other, and
    refuses a step when every pair left is over; ``scored`` gets the dense
    size of every pair it scores.  The rest is ``contraction._plan_component``.
    """
    count = len(wires)
    wires, est = list(wires), list(est)
    # how many of the live operands carry each wire; a wire is summed when
    # the last two that carry it are joined
    carriers = [0] * len(dims)
    for wk in wires:
        for w in wk:
            carriers[w] += 1
    # the live operands on each wire, and every pair of them that shares a
    # wire, scored once: a join changes no other pair's score
    on: list[list[int]] = [[] for _ in dims]
    heap: list[tuple] = []
    alive = set(range(count))
    steps: list[tuple] = []
    # each operand's join tree, spelled out: node k as (k,), and the join of
    # a and b as ( a * b ) with the brackets and the star as -3, -2 and -1;
    # no two live operands share a node, so no two spellings are equal
    spelling = [(k,) for k in range(count)]

    def add(k: int) -> None:
        # operands come in order, the nodes and then each joined one as it is
        # made, so k comes after every live operand; a pair ranks first by
        # whether its dense size is over the cap, then by its estimated
        # entries less those of its operands, its dense size, the spelling of
        # its earlier operand and that of its later one
        wk, ek = wires[k], est[k]
        full = contraction._dense_size(wk, dims)
        for p in {p: None for w in wk for p in on[w]}:
            # one pass over p's wires: the dims p keeps, and those it shares with k
            kept = shared = 1
            for w in wires[p]:
                if w in wk:
                    shared *= dims[w]
                    if carriers[w] > 2:
                        kept *= dims[w]
                else:
                    kept *= dims[w]
            dense = kept * full // shared
            ep = est[p]
            # at least 1 and at most dense, which is at least 1
            size = ep * ek // shared or 1
            if size > dense:
                size = dense
            heappush(heap, (dense > cap, size - ep - ek, dense, spelling[p], spelling[k], p, k, size))
            scored.append(dense)
        for w in wk:
            on[w].append(k)

    for k in range(count):
        add(k)
    out = 0
    for _ in range(count - 1):
        # a pair whose operand was joined since it was scored is dropped here;
        # a pair over the cap comes out only when every pair left is
        over, _, dense, _, _, a, b, size = heappop(heap)
        while a not in alive or b not in alive:
            over, _, dense, _, _, a, b, size = heappop(heap)
        if over:
            raise ResourceExceeded(dense, cap)
        wb = wires[b]
        summed = []
        for w in wires[a]:
            on[w].remove(a)
            if w in wb:
                carriers[w] -= 1
                if carriers[w] == 1:
                    summed.append(w)
        for w in wb:
            on[w].remove(b)
        alive -= {a, b}
        out = contraction._plan_step(a, b, summed, size, wires, est, steps)
        spelling.append((-3, *spelling[a], -1, *spelling[b], -2))
        alive.add(out)
        add(out)
    return tuple(steps), out, wires[out]


def _parent_plan(nodes, dims, cap, open_wires):
    """The plan of the planner that knew the cap (``None`` where it refused a step), and whether it scored a pair over it."""
    scored = []
    with planner(lambda wires, dims_, est: _parent_plan_component(wires, dims_, est, cap, scored)):
        try:
            plan = plan_network(nodes, dims, open_wires)
        except ResourceExceeded:
            plan = None
    return plan, max(scored, default=0) > cap


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([planner_network, sparse_network]),
       st.sampled_from([2, 4, 8, 16, 64, 4096]))
def test_plans_and_values_are_those_of_the_planner_that_knew_the_cap(seed, network, cap):
    nodes, dims, open_wires = network(random.Random(seed))
    parent, over = _parent_plan(nodes, dims, cap, open_wires)
    plan = planned(nodes, dims, open_wires)
    if not over:
        # the cap tier ranked no pair: the same estimates, so the same plan
        assert plan == parent
    # that planner's network also refused open wires over the cap in dense size
    if parent is not None and contraction._dense_size(open_wires, dims) <= cap:
        data = [n.data for n in nodes]
        # every step of an accepted plan was at most the cap in dense size, so it keeps at most the cap
        want = execute_plan(parent, data, cap)
        try:
            got = execute_plan(plan, data, cap)
        except ResourceExceeded:
            assert over
        else:
            assert got == want


# ---------------------------------------------------------------------------
# the plan cache against planning every component afresh


@contextmanager
def uncached():
    """``contraction`` with its planner outside the plan cache, so that every component is planned afresh."""
    kept = contraction._plan_component
    contraction._plan_component = kept.__wrapped__
    try:
        yield
    finally:
        contraction._plan_component = kept


def _prefixed(nodes, dims, open_wires, prefix: str):
    """The network with ``prefix`` before every node and wire name, which keeps the order of the names."""
    nodes = [Node(prefix + n.name, tuple(prefix + w for w in n.wires), n.data) for n in nodes]
    return nodes, {prefix + w: dim for w, dim in dims.items()}, [prefix + w for w in open_wires]


def _value_or_refusal(nodes, dims, cap, open_wires):
    try:
        return contract_network(nodes, dims, cap, open_wires)
    except ResourceExceeded as e:
        return ("refused", e.cost)


def _thinned(nodes):
    """The nodes with the last entry of each node that has two or more left out: other entry counts, same wires."""
    return [Node(n.name, n.wires, dict(list(n.data.items())[:-1]) if len(n.data) > 1 else n.data) for n in nodes]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([planner_network, sparse_network]),
       st.sampled_from([16, 64, 4096, DEFAULT_CAP]))
def test_a_plan_from_the_cache_is_the_plan_a_miss_builds(seed, network, cap):
    nodes, dims, open_wires = network(random.Random(seed))
    cache = contraction._plan_component
    with uncached():
        fresh = plan_network(nodes, dims, open_wires)
        want = _value_or_refusal(nodes, dims, cap, open_wires)
        # the same wires with other entry counts
        thinned = _thinned(nodes)
        thinned_fresh = plan_network(thinned, dims, open_wires)
    # warm: the cache as earlier examples left it, then as this network left it
    assert plan_network(nodes, dims, open_wires) == fresh
    assert plan_network(thinned, dims, open_wires) == thinned_fresh
    misses = cache.cache_info().misses
    assert plan_network(nodes, dims, open_wires) == fresh
    assert cache.cache_info().misses == misses
    # a network renamed in the same order has the same shapes: it hits them, and from a cold cache plans them alike
    renamed = _prefixed(nodes, dims, open_wires, "z.")
    assert plan_network(*renamed) == fresh
    assert cache.cache_info().misses == misses
    cache.cache_clear()
    assert plan_network(*renamed) == fresh
    # values with the cache cleared before every call
    for net in ((nodes, dims, open_wires), renamed):
        cache.cache_clear()
        assert _value_or_refusal(net[0], net[1], cap, net[2]) == want
    assert _value_or_refusal(nodes, dims, cap, open_wires) == want


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 6]))
def test_float_brackets_of_walks_are_those_of_a_cold_cache(seed, n):
    # kashaev:n=6 brackets of these diagrams are rounding noise around 0, which any change of order moves
    cfg = bracket.BracketConfig(hopf.float_triplet(hopf.kashaev_triplet(n)))
    rng, d = random.Random(seed), moves.stabilize(cp2())
    for _ in range(4):
        _, d = moves.random_move(d, rng)
        with uncached():
            fresh = repr(bracket.trisection_bracket(d, cfg))
        contraction._plan_component.cache_clear()
        assert repr(bracket.trisection_bracket(d, cfg)) == fresh
        assert repr(bracket.trisection_bracket(d, cfg)) == fresh


def test_the_plan_cache_never_holds_more_than_its_bound():
    # one shape per dim of the shared wire: more shapes than the cache keeps
    nodes = [Node("u", ("a",), {(0,): ONE}), Node("v", ("a",), {(0,): ONE})]
    cache = contraction._plan_component
    bound = cache.cache_info().maxsize

    def hits(dim: int) -> bool:
        """Plan the shape of ``dim``; whether the cache held it."""
        before = cache.cache_info().hits
        assert plan_network(nodes, {"a": dim}) == contraction.Plan(((0, 1, (0,), (), (0,), ()),), 2, ())
        assert cache.cache_info().currsize <= bound
        return cache.cache_info().hits > before

    cache.cache_clear()
    try:
        assert not any(hits(dim) for dim in range(1, bound + 101))
        assert cache.cache_info().currsize == bound
        # the least recently used went first: dims 1 to 100 are gone, every later one is kept
        assert all(hits(dim) for dim in range(101, bound + 101))
        # a hit makes a shape the most recently used: dim 102 outlives 103, though it came first
        assert [hits(dim) for dim in (1, 102, 2, 102, 103)] == [False, True, False, True, False]
    finally:
        cache.cache_clear()


# ---------------------------------------------------------------------------
# the join memo of shared tensors against the engine that joins every pair afresh


def _unmemoized_execute_plan(plan: contraction.Plan, data, cap) -> dict:
    """``contraction.execute_plan`` as it was before the join memo: every step runs ``_contract_pair``."""
    ops = list(data)
    for a, b, *pos in plan.steps:
        out = contraction._contract_pair(ops[a], ops[b], *pos, cap)
        ops[a] = ops[b] = None
        ops.append(out)
    if plan.result is None:
        return {(): 1}
    out, perm = ops[plan.result], plan.perm
    if perm == tuple(range(len(perm))):
        return out
    order = contraction._projection(perm)
    return {order(key): val for key, val in out.items()}


def memo_network(rng: random.Random, tensors: list[tuple[tuple[int, ...], dict]], kind: str):
    """Two to six nodes, most of them copies of the shared ``tensors``, each given as (shape, data).

    The first two nodes are copies of the first tensor that share a wire, a
    self-join such as ``M i j t, M t k o``; later nodes reuse a wire of the
    same dim as often as not.  A node that is no copy holds one or two
    entries of plain data.  Wires on one node only are open, in a random
    order.
    """
    nodes, dims = [], {}
    for k in range(rng.randint(2, 6)):
        if k < 2 or rng.random() < 0.8:
            shape, data = tensors[0] if k < 2 else rng.choice(tensors)
        else:
            shape = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
            keys = [tuple(rng.randrange(d) for d in shape) for _ in range(2)]
            data = {key: _pair_value(kind, rng, f"p{k}{key}") for key in keys}
        wires: list[str] = []
        for pos, d in enumerate(shape):
            pool = [w for w, dw in dims.items() if dw == d and w not in wires]
            if k == 1 and pos == 0:
                # the self-join: a wire of the first copy at any of its positions
                pool = [w for w in nodes[0].wires if w not in wires and dims[w] == d] or pool
                take = bool(pool)
            else:
                take = bool(pool) and rng.random() < 0.5
            if take:
                wires.append(rng.choice(pool))
            else:
                wires.append(f"w{len(dims)}")
                dims[wires[-1]] = d
        nodes.append(Node(f"n{k}", tuple(wires), data))
    ends = [w for n in nodes for w in n.wires]
    open_wires = [w for w in dims if ends.count(w) == 1]
    rng.shuffle(open_wires)
    return nodes, dims, open_wires


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["exact", "complex", "word"]))
def test_memoized_joins_are_the_joins_made_afresh(seed, kind):
    # three networks over the same one or two shared tensors, through one memo,
    # so that later networks meet the entries of earlier ones, at the same positions or others
    rng = random.Random(seed)
    tensors = []
    for t in range(rng.randint(1, 2)):
        # a first tensor of one axis gets a second of the same dim, so its self-join keeps an open wire
        shape = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        shape = tuple(shape + [shape[0]] if len(shape) == 1 and t == 0 else shape)
        keys = [key for key in itertools.product(*map(range, shape)) if rng.random() < 0.7]
        rng.shuffle(keys)
        tensors.append((shape, int_entries({key: _pair_value(kind, rng, f"t{t}{key}") for key in keys})))
    cases = []
    for _ in range(3):
        nodes, dims, open_wires = memo_network(rng, tensors, kind)
        plan, data = plan_network(nodes, dims, open_wires), [n.data for n in nodes]
        try:
            cases.append((plan, data, list(_unmemoized_execute_plan(plan, data, 4096).items())))
        except ResourceExceeded:
            pass
    # cold (a step's result is kept), warm three times (it is served), and
    # twice after the memo is cleared
    joins: dict = {}
    for rounds in range(6):
        if rounds == 4:
            joins.clear()
        for plan, data, want in cases:
            # the same keys and values in the same order: every sum is taken in the same order
            assert list(execute_plan(plan, data, 4096, joins).items()) == want


def test_the_caller_owns_every_result():
    m = int_entries({(0, 1): ONE, (1, 0): Cyc.rational(2), (1, 1): Cyc.zeta(3)})
    v = {(0,): ONE, (1,): Cyc.rational(3)}
    dims, joins = {"i": 2, "j": 2, "k": 2}, {}
    networks = [
        # one node and no step, as ``hopf._pairs`` contracts ``I i o``: int entries, then plain data
        ([Node("m", ("i", "j"), m)], ("i", "j")),
        ([Node("v", ("i",), v)], ("i",)),
        # a join of two nodes' data, a self-join, whose result is a memo entry
        ([Node("m0", ("i", "j"), m), Node("m1", ("j", "k"), m)], ("i", "k")),
    ]
    for nodes, open_wires in networks:
        want = contract_network(nodes, dims, open_wires=open_wires)
        # four times, with and without the memo: a step's result kept, and served three times more
        for memo in (None, joins, joins, joins):
            got = execute_plan(plan_network(nodes, dims, open_wires=open_wires), [n.data for n in nodes], joins=memo)
            got.clear()
            got[(9,) * len(open_wires)] = ONE
            assert contract_network(nodes, dims, open_wires=open_wires, joins=joins) == want


def test_a_memoized_join_is_refused_under_a_smaller_cap():
    # associativity's left side over C[Z/3], a self-join of 27 entries, kept
    # under the default cap and then served under a smaller one
    m = int_entries({(i, j, (i + j) % 3): ONE for i in range(3) for j in range(3)})
    nodes = [Node("m0", ("i", "j", "t"), m), Node("m1", ("t", "k", "o"), m)]
    dims, wires, joins = dict.fromkeys("ijtko", 3), ("i", "j", "k", "o"), {}
    want = contract_network(nodes, dims, open_wires=wires)
    for _ in range(2):
        assert contract_network(nodes, dims, open_wires=wires, joins=joins) == want
    assert [len(kept) for *_, kept in joins.values()] == [27]
    with pytest.raises(ResourceExceeded, match=r"^needs 27 or more entries in a contraction intermediate \(cap 26\)$"):
        contract_network(nodes, dims, cap=26, open_wires=wires, joins=joins)
    assert contract_network(nodes, dims, cap=27, open_wires=wires, joins=joins) == want


def test_a_kept_join_stores_its_integers_as_int():
    # int_entries keeps 1/2 as a Cyc, so 1/2 * 2 is the Cyc 1, which the memo stores as int
    v = int_entries({(0,): Cyc.rational(Fraction(1, 2)), (1,): Cyc.rational(2)})
    nodes = [Node("u", ("i",), v), Node("w", ("j",), v)]
    dims, wires, joins = {"i": 2, "j": 2}, ("i", "j"), {}
    want = {(0, 0): Cyc.rational(Fraction(1, 4)), (0, 1): ONE, (1, 0): ONE, (1, 1): Cyc.rational(4)}
    for _ in range(3):
        got = contract_network(nodes, dims, open_wires=wires, joins=joins)
        assert got == want and all(type(x) is Cyc for x in got.values())
    (x, y, kept), = joins.values()
    assert x is v and y is v
    assert {k: type(x) for k, x in kept.items()} == {(0, 0): Cyc, (0, 1): int, (1, 0): int, (1, 1): int}


class Data(dict):
    """Node data that a weak reference can watch: a plain dict cannot be one's referent."""


def test_the_memo_keeps_no_tensor_alive():
    gc.disable()
    try:
        m = Data(int_entries({(i, j, (i + j) % 2): Cyc.rational(i + 1) for i in range(2) for j in range(2)}))
        dims, joins = dict.fromkeys("ijtko", 2), {}
        # associativity's left side, a self-join
        nodes = [Node("m0", ("i", "j", "t"), m), Node("m1", ("t", "k", "o"), m)]
        want = contract_network(nodes, dims, open_wires=("i", "j", "k", "o"))
        for _ in range(3):
            assert contract_network(nodes, dims, open_wires=("i", "j", "k", "o"), joins=joins) == want
        # the kept entry is the plain dict the step made
        assert len(joins) == 1 and type(next(iter(joins.values()))[2]) is dict
        gone = weakref.ref(m)
        del m, nodes
        # the memo keeps what it joined, and nothing else does
        assert gone() is not None
        del joins
        assert gone() is None
    finally:
        gc.enable()


def test_an_id_in_the_memo_is_never_reused():
    # one long-lived tensor joined in turn with 1,000 short-lived ones through one memo:
    # an entry that did not hold its operands would be served to a later tensor at the same address
    keep = int_entries({(0, 0): ONE, (1, 0): Cyc.rational(2)})
    dims, joins = {"i": 2, "j": 2}, {}
    for n in range(1, 1001):
        nodes = [Node("a", ("i", "j"), keep), Node("b", ("j",), int_entries({(0,): Cyc.rational(n), (1,): ONE}))]
        for _ in range(2):
            assert contract_network(nodes, dims, open_wires=("i",), joins=joins) == {(0,): Cyc.rational(n), (1,): Cyc.rational(2 * n)}
        del nodes
    assert len(joins) == 1000
