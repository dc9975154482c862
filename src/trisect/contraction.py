"""Sparse tensor-network contraction with a greedy pairwise order.

Node data are dicts from index tuples to scalars.  A wire that appears on two
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
to the operands' ranks (see below).  Each pair that shares a wire is
scored once, and the scores are kept in a heap between steps: an operand's
estimate never changes once it is made, and a join lowers a carrier count
only on a wire that both of its operands carry, so any other pair on that wire
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
order and then each join's result as it is made, and ties between pairs
fall to these numbers, never to a name: each operand ranks by the depth of
its join tree's left spine, deeper first, then by its leftmost node.  Node
``k`` ranks as ``(0, k)``, and the join of ``a`` and ``b`` one deeper than
``a``.  Two live operands share no node, so no two of them rank alike.  The
cached plan is kept in the local numbers and relocated to the network's own
on each use, so a hit gives exactly the plan a miss would build.  The cache
is the ``lru_cache`` of ``_plan_component``: it keeps at most 4,096 plans,
and when it is full, the least recently used goes.

A pairwise step buckets the smaller operand by its shared positions and
scans the larger one.  It builds its key projections once, before it reads
an entry: a getter (``operator.itemgetter``) for the shared and for the kept
positions of each operand.

Node data that many networks share, such as a structure tensor of an
algebra, is best given through ``int_entries``, which stores each level-1
integer ``Cyc`` as a plain ``int``, whose products and sums cost a fraction
of a ``Cyc``'s.  ``execute_plan`` leaves such an ``int`` as it is;
``contract_network`` coerces each one back to ``Cyc``, so each of its results
is a ``Cyc`` (or a ``complex`` on the float backend).

A step that joins two nodes' data gives the same result whenever it meets
the same data, so a caller that contracts many networks over the same
long-lived data, as every bracket of one configuration does, may hand over a
dict, ``joins``, that keeps those results, as opt_einsum's
``contract_expression`` computes a sub-contraction of constants once.  An
entry is keyed by the two operands' ``id``s and the step's positions, and
holds both operands with the result, its level-1 integers as ``int``, so
neither ``id`` is reused while it lives.  The memo holds only products the
step would make anyway, summed in the same order, so every value stays
exactly that of the step.  A kept result may have been made under a larger
cap, so it is counted against the cap at hand.  Node data and memo entries
are shared, so ``execute_plan`` returns a copy of a result that may be one
of them: the caller owns every result.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from operator import itemgetter
from typing import NamedTuple

from .errors import ResourceExceeded
from .scalars import Cyc

# the most entries any pairwise step may keep, unless a caller sets its own
DEFAULT_CAP = 10_000_000


def int_entries(data: dict) -> dict:
    """A copy of ``data`` with each entry that is a level-1 integer ``Cyc`` as that ``int``."""
    return {key: val.num[0] if type(val) is Cyc and val.level == 1 and val.den == 1 else val
            for key, val in data.items()}


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

    out: dict[tuple[int, ...], object] = {}
    # ``accumulate``, inlined in the hot loop
    for key, val in large.items():
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
    """The positions of ``wire_lists`` in connected components, two positions together when they share a wire.

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
    # the last two that carry it are paired
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
    # each operand's rank: minus the depth of its join tree's left spine, then
    # its leftmost node; node k is (0, k), and a join ranks one deeper than its first operand
    rank = [(0, k) for k in range(count)]

    def add(k: int) -> None:
        # operands come in order, the nodes and then each join's result as it is
        # made, so k comes after every live operand; a pair ranks by its
        # estimated entries less those of its operands, then by its dense
        # size, the rank of its earlier operand and that of its later one
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
            heappush(heap, (size - ep - ek, dense, rank[p], rank[k], p, k, size))
        for w in wk:
            on[w].append(k)

    for k in range(count):
        add(k)
    out = 0
    for _ in range(count - 1):
        # a pair whose operand was consumed since it was scored is dropped here
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
        rank.append((rank[a][0] - 1, rank[a][1]))
        alive.add(out)
        add(out)
    return tuple(steps), out, wires[out]


def execute_plan(plan: Plan, data: Sequence[dict], cap: float = DEFAULT_CAP, joins: dict | None = None) -> dict:
    """Run ``plan`` on the nodes' ``data``; return the result keyed in the order of the open wires.

    The entries of ``data`` may be ``int``.  A network without open wires
    gives ``{(): value}``, or ``{}`` when the value is 0; one without nodes
    gives ``{(): 1}``.  The result is the caller's own to change.  Raises
    ``ResourceExceeded`` once a step keeps more than ``cap`` entries.
    ``joins``, the memo of the module docstring, keeps every operand it
    joins alive: hand it only long-lived data that does not change.
    """
    ops, leaves = list(data), len(data)
    for a, b, *pos in plan.steps:
        x, y = ops[a], ops[b]
        if joins is None or a >= leaves or b >= leaves:
            out = _contract_pair(x, y, *pos, cap)
        else:
            key = (id(x), id(y), *pos)
            if key not in joins:
                joins[key] = (x, y, int_entries(_contract_pair(x, y, *pos, cap)))
            out = joins[key][2]
            # the memo may have kept it under a larger cap
            if len(out) > cap:
                raise ResourceExceeded(len(out), cap)
        # each operand feeds one step only: drop it, so no intermediate outlives its use
        ops[a] = ops[b] = None
        ops.append(out)
    if plan.result is None:
        return {(): 1}
    out, perm = ops[plan.result], plan.perm
    if perm == tuple(range(len(perm))):
        # node data and memo entries are shared: the caller gets a copy of its own
        return dict(out) if plan.result < leaves or joins is not None else out
    order = _projection(perm)
    return {order(key): val for key, val in out.items()}


def contract_network(nodes: list[Node], dims: dict[str, int], cap: float = DEFAULT_CAP,
                     open_wires: Sequence[str] = (), joins: dict | None = None):
    """Contract to a scalar, or to a tensor over ``open_wires`` when some are given.

    The tensor is a sparse dict keyed by index tuples in the order of
    ``open_wires``.  It is ``plan_network``, then ``execute_plan`` with ``cap`` and ``joins``.
    """
    out = execute_plan(plan_network(nodes, dims, open_wires), [n.data for n in nodes], cap, joins)
    if not open_wires:
        return _exact(out.get((), 0))
    return {key: _exact(val) for key, val in out.items()}


def _exact(val):
    """An ``int`` result as the level-1 ``Cyc`` it stands for; any other value as it is."""
    return Cyc.rational(val) if type(val) is int else val
