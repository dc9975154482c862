"""Sparse tensor-network contraction with a greedy pairwise order.

Tensors are dicts from index tuples to scalars.  A wire that appears on two
or more nodes is summed over, once, like an index shared by several factors
of an einsum; a wire on exactly one node is open and must be listed in
``open_wires``.  The network factorizes over the connected components that
``connected`` finds, the one component search (``diagram`` groups its curves
with it too).  Inside one component the greedy order repeatedly contracts
the pair of connected nodes whose result has the smallest dense size
(product of the remaining wire dimensions, open wires included, and shared
wires that a third node still carries), with a deterministic tie break on
node names.  The components' results are then multiplied together as an
outer product over the open wires.  The cap bounds the dense size of every
pairwise result and of the final tensor, not the sparse storage actually
used.  Only exact zeros are dropped from the sparse storage.

Node data that many nodes share, such as a structure tensor of an algebra,
is best given as a ``Tensor``: a pairwise step whose larger operand is a
``Tensor`` looks its keys up through an index on one wire position instead
of scanning every entry.  The steps, and the order in which they add up
each product, stay those of the scan.

A ``Tensor`` stores each entry that is a level-1 integer ``Cyc`` as a plain
``int``, whose products and sums cost a fraction of a ``Cyc``'s; a ``Cyc``
or ``complex`` operand takes an ``int`` through its own arithmetic.  Every
``int`` a contraction ends with is coerced back to ``Cyc``, so every result
is a ``Cyc`` (or a ``complex`` on the float backend).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

from .errors import ResourceExceeded
from .scalars import Cyc


class Tensor(dict):
    """Sparse node data shared by many nodes, with an index on each wire position.

    The index from the value at one key position to the keys that have it is
    built on first use, once per position, and kept; a ``Tensor`` must not
    change once it has been contracted.
    """

    def __init__(self, data=()) -> None:
        super().__init__(data)
        for key, val in self.items():
            if type(val) is Cyc and val.level == 1 and val.den == 1:
                self[key] = val.num[0]
        self._keys: list[tuple[int, ...]] | None = None
        # position -> value -> ordinals of its keys, in arrays: no int object per entry
        self._index: dict[int, dict[int, array]] = {}

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


def _contract_pair(a: Node, b: Node, summed) -> Node:
    """Join ``a`` and ``b`` on their shared wires, sum those in ``summed``, keep the rest once, as in ``a``."""
    shared = [w for w in a.wires if w in b.wires]
    keep_a = [w for w in a.wires if w not in summed]
    keep_b = [w for w in b.wires if w not in shared]
    # bucket the smaller operand by its shared indices and scan the larger one;
    # keys stay keep_a + keep_b and every product stays a-value * b-value
    bucket_a = len(a.data) < len(b.data)
    small, large = (a, b) if bucket_a else (b, a)
    pos_sh_s = [small.wires.index(w) for w in shared]
    pos_keep_s = [small.wires.index(w) for w in (keep_a if bucket_a else keep_b)]
    pos_sh_l = [large.wires.index(w) for w in shared]
    pos_keep_l = [large.wires.index(w) for w in (keep_b if bucket_a else keep_a)]

    buckets: dict[tuple, list] = {}
    for key, val in small.data.items():
        sh = tuple([key[p] for p in pos_sh_s])
        buckets.setdefault(sh, []).append((tuple([key[p] for p in pos_keep_s]), val))

    items = large.data.items()
    if shared and isinstance(large.data, Tensor):
        # only keys whose first shared value meets the smaller operand can hit
        items = large.data.items_at(pos_sh_l[0], {sh[0] for sh in buckets})
    out: dict[tuple[int, ...], object] = {}
    for key, val in items:
        hits = buckets.get(tuple([key[p] for p in pos_sh_l]))
        if not hits:
            continue
        mine = tuple([key[p] for p in pos_keep_l])
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
    return Node(f"({a.name}*{b.name})", tuple(keep_a + keep_b), out)


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


def contract_network(nodes: list[Node], dims: dict[str, int], cap: float = 10_000_000,
                     open_wires: Sequence[str] = ()):
    """Contract to a scalar, or to a tensor over ``open_wires`` when some are given.

    The tensor is a sparse dict keyed by index tuples in the order of
    ``open_wires``.
    """
    size = _dense_size(open_wires, dims)
    if size > cap:
        raise ResourceExceeded(size, cap)
    out = None
    for comp in connected([n.wires for n in nodes]):
        part = _contract_component([nodes[i] for i in comp], dims, cap)
        out = part if out is None else _contract_pair(out, part, ())
    if out is None:
        out = Node("1", (), {(): 1})
    if sorted(out.wires) != sorted(open_wires):
        raise AssertionError(f"open wires {out.wires}, expected {tuple(open_wires)}")
    if not open_wires:
        return _exact(out.data.get((), 0))
    pos = [out.wires.index(w) for w in open_wires]
    return {tuple(key[p] for p in pos): _exact(val) for key, val in out.data.items()}


def _exact(val):
    """An ``int`` result as the level-1 ``Cyc`` it stands for; any other value as it is."""
    return Cyc.rational(val) if type(val) is int else val


def _contract_component(nodes: list[Node], dims: dict[str, int], cap: int) -> Node:
    nodes = sorted(nodes, key=lambda n: n.name)
    # how many of the remaining nodes carry each wire; a wire is summed when
    # the last two that carry it are merged
    carriers: dict[str, int] = {}
    for n in nodes:
        for w in n.wires:
            carriers[w] = carriers.get(w, 0) + 1
    while len(nodes) > 1:
        best = None
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                if not any(w in nodes[j].wires for w in nodes[i].wires):
                    continue
                wires = [w for w in nodes[i].wires if w not in nodes[j].wires or carriers[w] > 2]
                wires += [w for w in nodes[j].wires if w not in nodes[i].wires]
                cost = _dense_size(wires, dims)
                key = (cost, nodes[i].name, nodes[j].name)
                if best is None or key < best[0]:
                    best = (key, i, j)
        (cost, _, _), i, j = best
        if cost > cap:
            raise ResourceExceeded(cost, cap)
        summed = []
        for w in nodes[i].wires:
            if w in nodes[j].wires:
                carriers[w] -= 1
                if carriers[w] == 1:
                    summed.append(w)
        merged = _contract_pair(nodes[i], nodes[j], summed)
        nodes = [n for k, n in enumerate(nodes) if k not in (i, j)] + [merged]
    return nodes[0]
