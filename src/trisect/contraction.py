"""Sparse tensor-network contraction with a greedy pairwise order.

Tensors are dicts from index tuples to scalars.  A wire that appears on two
or more nodes is summed over, once, like an index shared by several factors
of an einsum; a wire on exactly one node is open and must be listed in
``open_wires``.  The network factorizes over the connected components that
``connected`` finds, the one component search (``diagram`` groups its curves
with it too).  Inside one component the greedy order repeatedly contracts
the pair of connected nodes with the lowest score, the greedy cost of
opt_einsum (Smith and Gray, JOSS 2018): the estimated entries of the result
less those of the two operands.  A node is estimated at its own entry count;
a pair at the product of its operands' estimates over the dense size of the
wires they share, at least 1 and at most the result's dense size (the
product of the remaining wire dimensions, open wires included, and shared
wires that a third node still carries).  Ties fall to the dense size, then
to the operands' join trees (see below).  Each pair that shares a wire is
scored once, and the scores are kept in a heap between steps: an operand's
estimate never changes once it is made, and a join lowers a carrier count
only on a wire that both joined nodes carry, so any other pair on that wire
still has a third carrier and keeps its score, and only the new node's pairs
are scored.  The components' results are then multiplied together as an
outer product over the open wires.  Only exact zeros are dropped from the
sparse storage.

The cap is one count, made where entries are made: the entries that a
pairwise step keeps.  The step checks it after each key of its larger
operand that meets the other, and raises ``ResourceExceeded`` with the count
so far, a lower bound on what the step would keep.  The planner knows no
cap; a network is refused only by the work it actually does.

The order is found as a ``Plan`` (``plan_network``), and ``execute_plan``
runs its pairwise steps on the nodes' data.  Its result is keyed in the
order of the open wires, whatever order the steps leave them in, so two
results over the same open wires can be compared key by key.
``contract_network`` is the two in turn.

A component's order is a function of its shape alone, so each shape is
planned once and its plan replayed on every later component of that shape,
as opt_einsum's ``contract_expression`` reuses a path.  The shape, the key of
the plan cache, is: the component's nodes in name order, each node's wires
numbered by first appearance, the dims of those numbers, and each node's
entry count.  Node names, wire names and the data are not part of it.
The planner numbers the operands of a component locally, the nodes in that
order and then each joined operand as it is made, and ties between pairs
fall to these numbers, never to a name: each operand is spelled out as its
join tree, node ``k`` as ``(k,)`` and the join of ``a`` and ``b`` as ``( a *
b )``, so a joined operand ranks before every node and two joined operands
rank as their first operands do, then their second.  The cached plan is kept
in the local numbers and relocated to the network's own on each use, so a
hit gives exactly the plan a miss would build.  The cache is the
``lru_cache`` of ``_plan_component``: it keeps at most 4,096 plans, and when
it is full, the least recently used goes.

Node data that many nodes share, such as a structure tensor of an algebra,
is best given as a ``Tensor``: a pairwise step whose larger operand is a
``Tensor`` looks its keys up through an index on one wire position instead
of scanning every entry.  The steps, and the order in which they add up
each product, stay those of the scan.  Each step builds its key projections
once, before it reads an entry: a getter (``operator.itemgetter``) for the
shared and for the kept positions of each operand.

A ``Tensor`` stores each entry that is a level-1 integer ``Cyc`` as a plain
``int``, whose products and sums cost a fraction of a ``Cyc``'s; a ``Cyc``
or ``complex`` operand takes an ``int`` through its own arithmetic.
``execute_plan`` leaves such an ``int`` as it is; ``contract_network`` coerces
each one back to ``Cyc``, so each of its results is a ``Cyc`` (or a
``complex`` on the float backend).

A step that joins two ``Tensor``s of node data, such as two structure tensors
that every bracket of one configuration shares, gives the same result each
time, so ``execute_plan`` keeps it, as opt_einsum's ``contract_expression``
computes a sub-contraction of constants once.  The memo lives on the first
``Tensor``, keyed by the second's ``id`` and the step's positions.  It holds
the second only through a weak reference, whose callback drops the entry
when the second goes, so a self-join makes no cycle and no entry outlives
either ``Tensor``.  A result costs memory only once it recurs: the first time
a step is seen, its entry holds no result, so a join made once, such as one
of the tensors that an identity check builds for a single call, is freed
after its use; the second time, the entry keeps the plain dict the step
made; the third time, that dict becomes a ``Tensor``, so that later steps
index it.  The memo holds only products the step would make anyway, summed
in the same order, so every value stays exactly that of the step.  A kept
result may have been made under a larger cap, so ``execute_plan`` counts its
entries against the cap at hand.  Node data and memo entries are shared, so
``execute_plan`` returns a copy when the network ends in one of them: the
caller owns every result.
"""

from __future__ import annotations

import weakref
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .errors import ResourceExceeded
from .scalars import Cyc

# the most entries any pairwise step may keep, unless a caller sets its own
DEFAULT_CAP = 10_000_000


class Tensor(dict):
    """Sparse node data shared by many nodes, with an index on each wire position.

    The index from the value at one key position to the keys that have it is
    built on first use, once per position, and kept, as are the results of
    its joins with other ``Tensor``s (see the module docstring); a ``Tensor``
    must not change once it has been contracted, or both would go stale.
    """

    def __init__(self, data=()) -> None:
        super().__init__(data)
        for key, val in self.items():
            if type(val) is Cyc and val.level == 1 and val.den == 1:
                self[key] = val.num[0]
        self._keys: list[tuple[int, ...]] | None = None
        # position -> value -> ordinals of its keys, in arrays: no int object per entry
        self._index: dict[int, dict[int, array]] = {}
        # (id of the other Tensor, positions) -> [weak reference to it, result or None]
        self._joins: dict[tuple, list] = {}

    def items_at(self, pos: int, values) -> list[tuple[tuple[int, ...], object]]:
        """The items whose key has one of ``values`` at ``pos``, in the dict's order."""
        if self._keys is None:
            self._keys = list(self)
        keys = self._keys
        by_value = self._index.get(pos)
        if by_value is None:
            by_value = self._index[pos] = {}
            for n, key in enumerate(keys):
                by_value.setdefault(key[pos], array("i")).append(n)
        rows = [by_value[v] for v in values if v in by_value]
        order = rows[0] if len(rows) == 1 else sorted(chain.from_iterable(rows))
        return [(keys[n], self[keys[n]]) for n in order]

    def joined(self, other: Tensor, pos, cap: float) -> dict:
        """``_contract_pair(self, other, *pos, cap)``, kept from the second call on, as a ``Tensor`` from the third.

        A result is kept while both live, and served whatever the cap it was made under.
        """
        key = (id(other), *pos)
        entry = self._joins.get(key)
        if entry is None:

            def gone(_, me=weakref.ref(self)) -> None:
                # ``other`` went; ``self`` is held weakly too, so a self-join makes no cycle
                t = me()
                if t is not None:
                    t._joins.pop(key, None)

            # the first time only marks the pair: a result made once is not held
            self._joins[key] = [weakref.ref(other, gone), None]
            return _contract_pair(self, other, *pos, cap)
        if entry[1] is None:
            entry[1] = _contract_pair(self, other, *pos, cap)
        elif type(entry[1]) is not Tensor:
            entry[1] = Tensor(entry[1])
        return entry[1]


@dataclass
class Node:
    name: str
    wires: tuple[str, ...]
    data: dict[tuple[int, ...], object]


def _dense_size(wires, dims) -> int:
    size = 1
    for w in wires:
        size *= dims[w]
    return size


def accumulate(dst: dict, key, val) -> None:
    """Add ``val`` into ``dst[key]``, and drop the entry when the sum is an exact zero."""
    cur = dst.get(key)
    new = val if cur is None else cur + val
    if new:
        dst[key] = new
    else:
        dst.pop(key, None)


def _projection(pos):
    """The function from a key to the tuple of its values at ``pos``.

    ``itemgetter`` of one position returns a bare value, so one position
    and none get getters of their own that still return a tuple.
    """
    if len(pos) > 1:
        return itemgetter(*pos)
    if pos:
        p = pos[0]
        return lambda key: (key[p],)
    return lambda key: ()


def _contract_pair(a: dict, b: dict, sh_a, keep_a, sh_b, keep_b, cap: float) -> dict:
    """Join ``a`` and ``b`` where their keys agree at ``sh_a`` and ``sh_b``; key each product by ``keep_a + keep_b``.

    The positions lists are a step of a ``Plan``: the shared wires' positions
    in each operand, then the positions each operand keeps.  Raises
    ``ResourceExceeded`` as soon as the result keeps more than ``cap`` entries.
    """
    # bucket the smaller operand by its shared indices and scan the larger one;
    # keys stay keep_a + keep_b and every product stays a-value * b-value
    bucket_a = len(a) < len(b)
    if bucket_a:
        small, pos_sh_s, pos_keep_s, large, pos_sh_l, pos_keep_l = a, sh_a, keep_a, b, sh_b, keep_b
    else:
        small, pos_sh_s, pos_keep_s, large, pos_sh_l, pos_keep_l = b, sh_b, keep_b, a, sh_a, keep_a
    sh_s, keep_s = _projection(pos_sh_s), _projection(pos_keep_s)
    sh_l, keep_l = _projection(pos_sh_l), _projection(pos_keep_l)

    buckets: dict[tuple, list] = {}
    for key, val in small.items():
        buckets.setdefault(sh_s(key), []).append((keep_s(key), val))

    items = large.items()
    if pos_sh_l and isinstance(large, Tensor):
        # only keys whose first shared value meets the smaller operand can hit
        items = large.items_at(pos_sh_l[0], {sh[0] for sh in buckets})
    out: dict[tuple[int, ...], object] = {}
    # ``accumulate``, inlined in the hot loop
    for key, val in items:
        hits = buckets.get(sh_l(key))
        if not hits:
            continue
        mine = keep_l(key)
        if bucket_a:
            for left, aval in hits:
                k = left + mine
                cur = out.get(k)
                term = aval * val
                new = term if cur is None else cur + term
                if new:
                    out[k] = new
                else:
                    out.pop(k, None)
        else:
            for right, bval in hits:
                k = mine + right
                cur = out.get(k)
                term = val * bval
                new = term if cur is None else cur + term
                if new:
                    out[k] = new
                else:
                    out.pop(k, None)
        # once per key that hits, not per product, so the count may pass the cap by one key's products
        if len(out) > cap:
            raise ResourceExceeded(len(out), cap)
    return out


def connected(wire_lists: Sequence[Sequence[str]]) -> list[list[int]]:
    """The positions of ``wire_lists`` in connected components, two positions joined when they share a wire.

    Components come in the order of their first position, and the positions
    in each component are increasing.
    """
    # union-find in which every root is the least position of its component
    parent = list(range(len(wire_lists)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first: dict[str, int] = {}
    for i, wires in enumerate(wire_lists):
        for w in wires:
            a, b = root(i), root(first.setdefault(w, i))
            if a != b:
                parent[max(a, b)] = min(a, b)
    comps: dict[int, list[int]] = {}
    for i in range(len(wire_lists)):
        comps.setdefault(root(i), []).append(i)
    return list(comps.values())


class Plan(NamedTuple):
    """The pairwise steps that contract a network, fixed by its wires, dims, entry counts and node name order.

    It runs on any data whose entry counts are those it was planned for;
    other data gives the same value, by a step order that may cost more.

    Operand ``k`` of a step is the data of node ``k`` when the network has
    more than ``k`` nodes, else the result of step ``k - len(nodes)``.  A step
    is ``(a, b, sh_a, keep_a, sh_b, keep_b)``: operands ``a`` and ``b``, then
    the positions ``_contract_pair`` takes, as tuples.  ``result`` is the
    operand that ends the network (``None`` for a network without nodes), and
    ``perm`` the position of each open wire in its keys, through which
    ``execute_plan`` puts them in the order of the open wires.
    """

    steps: tuple[tuple, ...]
    result: int | None
    perm: tuple[int, ...]


def plan_network(nodes: Sequence[Node], dims: dict[str, int], open_wires: Sequence[str] = ()) -> Plan:
    """The greedy contraction order of ``nodes``, as the ``Plan`` that ``execute_plan`` runs on their data.

    Each connected component is planned once per shape, and the plan is
    replayed on every later component of that shape.  It refuses nothing:
    the cap is counted by ``execute_plan``.
    """
    names = [n.name for n in nodes]
    steps: list[tuple] = []
    out, out_wires = None, ()
    for comp in connected([n.wires for n in nodes]):
        live = sorted(comp, key=names.__getitem__)
        # the shape: the nodes in name order, each node's wires numbered by
        # first appearance, the dims of those numbers, and each node's entry count
        number: dict[str, int] = {}
        part_steps, result, kept = _plan_component(
            tuple([tuple([number.setdefault(w, len(number)) for w in nodes[k].wires]) for k in live]),
            tuple([dims[w] for w in number]), tuple([len(nodes[k].data) for k in live]))
        # the shape's operand k is node live[k], then each step's result as it is made
        first = len(nodes) + len(steps)
        ops = live + list(range(first, first + len(part_steps)))
        steps += [(ops[a], ops[b], *pos) for a, b, *pos in part_steps]
        wire = list(number)
        part, part_wires = ops[result], tuple([wire[w] for w in kept])
        if out is not None:
            # components share no wire, so their results join as an outer product
            steps.append((out, part, (), tuple(range(len(out_wires))), (), tuple(range(len(part_wires)))))
            part, part_wires = len(nodes) + len(steps) - 1, out_wires + part_wires
        out, out_wires = part, part_wires
    if sorted(out_wires) != sorted(open_wires):
        raise AssertionError(f"open wires {out_wires}, expected {tuple(open_wires)}")
    return Plan(tuple(steps), out, tuple(out_wires.index(w) for w in open_wires))


def _plan_step(i: int, j: int, summed, size: int, wires: list, est: list, steps: list) -> int:
    """Append the step that joins operands ``i`` and ``j`` and sums ``summed``; return the new operand.

    ``size`` is the new operand's estimated entry count.
    """
    wa, wb = wires[i], wires[j]
    shared = [w for w in wa if w in wb]
    keep_a = [w for w in wa if w not in summed]
    keep_b = [w for w in wb if w not in shared]
    steps.append((i, j, tuple([wa.index(w) for w in shared]), tuple([wa.index(w) for w in keep_a]),
                  tuple([wb.index(w) for w in shared]), tuple([wb.index(w) for w in keep_b])))
    wires.append(tuple(keep_a + keep_b))
    est.append(size)
    return len(wires) - 1


@lru_cache(maxsize=4096)
def _plan_component(wires: tuple, dims: tuple, est: tuple) -> tuple[tuple, int, tuple]:
    """The greedy order of one connected component, found from its shape alone, and kept for the shape.

    Node ``k`` carries the wire numbers ``wires[k]`` and has ``est[k]``
    entries, and wire ``w`` has dimension ``dims[w]``.  Operand ``k`` is node
    ``k``, and operand ``len(wires) + s`` the result of step ``s``.  Returns
    the steps, each ``(a, b, sh_a, keep_a, sh_b, keep_b)`` in these operand
    numbers, the operand that ends the component, and its wires.
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
        # made, so k comes after every live operand; a pair ranks by its
        # estimated entries less those of its operands, then by its dense
        # size, the spelling of its earlier operand and that of its later one
        wk, ek = wires[k], est[k]
        full = _dense_size(wk, dims)
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
            heappush(heap, (size - ep - ek, dense, spelling[p], spelling[k], p, k, size))
        for w in wk:
            on[w].append(k)

    for k in range(count):
        add(k)
    out = 0
    for _ in range(count - 1):
        # a pair whose operand was joined since it was scored is dropped here
        _, _, _, _, a, b, size = heappop(heap)
        while a not in alive or b not in alive:
            _, _, _, _, a, b, size = heappop(heap)
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
        out = _plan_step(a, b, summed, size, wires, est, steps)
        spelling.append((-3, *spelling[a], -1, *spelling[b], -2))
        alive.add(out)
        add(out)
    return tuple(steps), out, wires[out]


def execute_plan(plan: Plan, data: Sequence[dict], cap: float = DEFAULT_CAP) -> dict:
    """Run ``plan`` on the nodes' ``data``; return the result keyed in the order of the open wires.

    The entries of a ``Tensor`` may still be ``int``.  A network without open
    wires gives ``{(): value}``, or ``{}`` when the value is 0; one without
    nodes gives ``{(): 1}``.  The result is the caller's own to change.
    Raises ``ResourceExceeded`` once a step keeps more than ``cap`` entries.
    """
    ops, leaves = list(data), len(data)
    # the operands that the memo may hold
    memo = set()
    for a, b, *pos in plan.steps:
        x, y = ops[a], ops[b]
        if a < leaves and b < leaves and type(x) is Tensor and type(y) is Tensor:
            memo.add(len(ops))
            out = x.joined(y, pos, cap)
            # the memo may have kept it under a larger cap
            if len(out) > cap:
                raise ResourceExceeded(len(out), cap)
        else:
            out = _contract_pair(x, y, *pos, cap)
        # each operand feeds one step only: drop it, so no intermediate outlives its use
        ops[a] = ops[b] = None
        ops.append(out)
    if plan.result is None:
        return {(): 1}
    out, perm = ops[plan.result], plan.perm
    if perm == tuple(range(len(perm))):
        # node data and memo entries are shared: the caller gets a copy of its own
        return dict(out) if plan.result < leaves or plan.result in memo else out
    order = _projection(perm)
    return {order(key): val for key, val in out.items()}


def contract_network(nodes: list[Node], dims: dict[str, int], cap: float = DEFAULT_CAP,
                     open_wires: Sequence[str] = ()):
    """Contract to a scalar, or to a tensor over ``open_wires`` when some are given.

    The tensor is a sparse dict keyed by index tuples in the order of
    ``open_wires``.  It is ``plan_network`` followed by ``execute_plan``, which ``cap`` bounds.
    """
    out = execute_plan(plan_network(nodes, dims, open_wires), [n.data for n in nodes], cap)
    if not open_wires:
        return _exact(out.get((), 0))
    return {key: _exact(val) for key, val in out.items()}


def _exact(val):
    """An ``int`` result as the level-1 ``Cyc`` it stands for; any other value as it is."""
    return Cyc.rational(val) if type(val) is int else val
