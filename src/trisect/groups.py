"""Finite groups as Cayley tables, finite group actions, abelian characters.

Groups carry element labels and an index-based multiplication table; the
identity is always index 0.  Characters of abelian groups are produced
exactly, as exponent vectors of a fixed primitive root of unity of the
group exponent.

``WeakConfig`` is the one description of a transitive C x B^op-set M, the
datum that both the weak triplet (``hopf.weak_triplet``) and the labelling
counts (``labelcount``) are built from: its group K (``bimodule_group``), the
point set by default, its checks, and the index of C and B in K.  A G-set
file that is not of the shape ``gset_from_json`` reads is a ``TrisectError``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from . import contraction
from .errors import ResourceExceeded, TrisectError


@dataclass(frozen=True)
class Group:
    name: str
    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]  # table[i][j] = index of g_i * g_j

    def __post_init__(self):
        n = len(self.labels)
        if any(len(row) != n for row in self.table) or len(self.table) != n:
            raise TrisectError(f"group {self.name}: table is not {n}x{n}")
        if any(self.table[0][j] != j or self.table[j][0] != j for j in range(n)):
            raise TrisectError(f"group {self.name}: index 0 is not an identity")

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def identity(self) -> int:
        return 0

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    @cached_property
    def _inverses(self) -> tuple[int | None, ...]:
        return tuple(next((j for j, k in enumerate(row) if k == 0), None) for row in self.table)

    def inverse(self, i: int) -> int:
        j = self._inverses[i]
        if j is None:
            raise TrisectError(f"group {self.name}: {self.labels[i]} has no inverse")
        return j

    def element_order(self, i: int) -> int:
        k, g = 1, i
        while g != 0:
            g = self.mul(g, i)
            k += 1
        return k

    def exponent(self) -> int:
        return math.lcm(*map(self.element_order, range(self.order)))

    def is_abelian(self) -> bool:
        return all(
            self.table[i][j] == self.table[j][i]
            for i in range(self.order)
            for j in range(i + 1, self.order)
        )

    def closure(self, gens: list[int]) -> list[int]:
        seen = {0}
        frontier = [0]
        while frontier:
            g = frontier.pop()
            for h in gens:
                x = self.mul(g, h)
                if x not in seen:
                    seen.add(x)
                    frontier.append(x)
        return sorted(seen)

    def subgroup(self, members: list[int], name: str = "") -> tuple["Group", list[int]]:
        """The subgroup on the given (closed) member set, with its inclusion map."""
        members = sorted(set(members))
        if members[0] != 0:
            raise TrisectError("subgroup must contain the identity")
        pos = {g: i for i, g in enumerate(members)}
        table = []
        for g in members:
            row = []
            for h in members:
                x = self.mul(g, h)
                if x not in pos:
                    raise TrisectError("member set is not closed under multiplication")
                row.append(pos[x])
            table.append(tuple(row))
        sub = Group(name or f"{self.name}-sub", tuple(self.labels[g] for g in members), tuple(table))
        return sub, members

    def characters(self) -> list[tuple[int, ...]]:
        """All irreducible characters of an abelian group.

        Character chi is returned as a vector of exponents: chi(g_j) equals
        zeta_e^{vec[j]} with e the group exponent.  Each g outside the subgroup
        H built so far, in index order, with p = g^k its first power in H,
        extends each chi of H by chi(h g^j) = chi(h) + j t, for the k roots t
        of k t = chi(p) (mod e); chi(p) is divisible by k.
        """
        if not self.is_abelian():
            raise TrisectError(f"group {self.name} is not abelian; supply representations explicitly")
        e = self.exponent()
        chars = [{0: 0}]  # characters of H, as {element: exponent}; chars[0] is trivial, its keys are H
        for g in range(self.order):
            if g in chars[0]:
                continue
            powers = [0]
            while (p := self.mul(powers[-1], g)) not in chars[0]:
                powers.append(p)
            k = len(powers)
            chars = [
                {self.mul(h, gj): (v + j * t) % e for j, gj in enumerate(powers) for h, v in chi.items()}
                for chi in chars
                for t in range(chi[p] // k, e, e // k)
            ]
        return sorted(tuple(chi[g] for g in range(self.order)) for chi in chars)

    def __str__(self) -> str:
        return self.name


def _check_table_size(order: int) -> None:
    """Refuse a Cayley table of more entries than ``contraction.DEFAULT_CAP``, the engine's one cap."""
    if order * order > contraction.DEFAULT_CAP:
        raise ResourceExceeded(order * order, contraction.DEFAULT_CAP, "entries in a group table")


def cyclic(n: int) -> Group:
    _check_table_size(n)
    labels = tuple(str(i) for i in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return Group(f"Z/{n}", labels, table)


def _permutation_group(name: str, labels: tuple[str, ...], perms: list[tuple[int, ...]]) -> Group:
    """The group of ``perms``, identity first, with g_i * g_j the composite perms[i] o perms[j]."""
    idx = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(idx[tuple([p[x] for x in q])] for q in perms) for p in perms)
    return Group(name, labels, table)


def symmetric(n: int) -> Group:
    if n not in (3, 4):
        raise TrisectError("only S3 and S4 are built in")
    perms = list(itertools.permutations(range(n)))  # lexicographic: the identity first
    return _permutation_group(f"S{n}", tuple("".join(str(x) for x in p) for p in perms), perms)


def dihedral(n: int) -> Group:
    """Dihedral group of order 2n (rotations r^k, reflections sr^k), for n >= 3.

    Below 3 the action on the n vertices is not faithful, so it cannot
    build D1 (Z/2) or D2 (Z/2xZ/2); those are built as products of cyclic groups.
    """
    if n < 3:
        raise TrisectError(f"D{n} is not built as a dihedral group: use Z/2 for D1 and Z/2xZ/2 for D2")
    labels = tuple(f"r{k}" for k in range(n)) + tuple(f"s{k}" for k in range(n))
    rotations = [tuple((x + k) % n for x in range(n)) for k in range(n)]
    reflections = [tuple((k - x) % n for x in range(n)) for k in range(n)]
    return _permutation_group(f"D{n}", labels, rotations + reflections)


def opposite(g: Group) -> Group:
    table = tuple(tuple(g.table[j][i] for j in range(g.order)) for i in range(g.order))
    return Group(f"{g.name}^op", g.labels, table)


def product(g: Group, h: Group, name: str | None = None) -> Group:
    _check_table_size(g.order * h.order)
    labels = tuple(f"({a},{b})" for a in g.labels for b in h.labels)
    m = h.order
    table = []
    for i in range(g.order):
        for j in range(m):
            row = []
            for k in range(g.order):
                for l in range(m):
                    row.append(g.mul(i, k) * m + h.mul(j, l))
            table.append(tuple(row))
    return Group(name or f"{g.name}x{h.name}", labels, tuple(table))


_BUILTIN = {"s3": symmetric(3), "s4": symmetric(4), "d4": dihedral(4)}


def parse_group(spec: str) -> Group:
    """Parse 'Z/6', 'Z/2xZ/2', 'S3', 'S4', 'D4' (case-insensitive)."""
    s = spec.strip().replace(" ", "")
    low = s.lower()
    if low in _BUILTIN:
        return _BUILTIN[low]
    factors = low.split("x")
    groups = []
    for f in factors:
        # isdigit() admits '²', which int() refuses, and int() refuses over 4300 digits
        if f.startswith("z/") and f[2:].isdecimal() and len(f) <= 20 and int(f[2:]) >= 1:
            groups.append(cyclic(int(f[2:])))
        elif f in _BUILTIN:
            groups.append(_BUILTIN[f])
        else:
            raise TrisectError(f"unknown group spec {spec!r}")
    g = groups[0]
    for h in groups[1:]:
        g = product(g, h)
    return g


@dataclass(frozen=True)
class GSet:
    """A finite left K-set given by an action table act[k][m]."""

    group: Group
    labels: tuple[str, ...]
    act: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k, m = self.group.order, len(self.labels)
        if len(self.act) != k or any(len(row) != m for row in self.act):
            raise TrisectError("action table has wrong shape")
        if all(row == tuple(range(m)) for row in self.act):
            return  # every element acts as the identity, as on a point
        for g in range(k):
            for h in range(k):
                gh = self.group.mul(g, h)
                for x in range(m):
                    if self.act[g][self.act[h][x]] != self.act[gh][x]:
                        raise TrisectError("not a group action")

    @property
    def size(self) -> int:
        return len(self.labels)

    def apply(self, g: int, m: int) -> int:
        return self.act[g][m]

    def is_transitive(self) -> bool:
        orbit = {0}
        for g in range(self.group.order):
            orbit.add(self.act[g][0])
        return len(orbit) == self.size

    def stabilizer_pair(self, m1: int, m2: int) -> list[int]:
        return [g for g in range(self.group.order) if self.act[g][m1] == m1 and self.act[g][m2] == m2]

    def pair_orbits(self) -> list[dict]:
        """K-orbits on M x M with a transversal h[(p,q)] sending the basepoint there."""
        seen: set[tuple[int, int]] = set()
        orbits = []
        for m1 in range(self.size):
            for m2 in range(self.size):
                if (m1, m2) in seen:
                    continue
                transversal = {(m1, m2): 0}
                frontier = [(m1, m2)]
                while frontier:
                    p, q = frontier.pop()
                    for g in range(self.group.order):
                        t = (self.act[g][p], self.act[g][q])
                        if t not in transversal:
                            transversal[t] = self.group.mul(g, transversal[(p, q)])
                            frontier.append(t)
                seen |= set(transversal)
                orbits.append({"base": (m1, m2), "transversal": transversal})
        return orbits


def point_gset(k: Group) -> GSet:
    return GSet(k, ("*",), tuple((0,) for _ in range(k.order)))


def regular_gset(k: Group) -> GSet:
    act = tuple(tuple(k.mul(g, m) for m in range(k.order)) for g in range(k.order))
    return GSet(k, k.labels, act)


def coset_gset(k: Group, subgroup_members: list[int]) -> GSet:
    members = set(k.closure(subgroup_members))
    cosets: list[frozenset[int]] = []
    for g in range(k.order):
        c = frozenset(k.mul(g, h) for h in members)
        if c not in cosets:
            cosets.append(c)
    labels = tuple("{" + k.labels[min(c)] + "H}" for c in cosets)
    idx = {c: i for i, c in enumerate(cosets)}
    act = tuple(
        tuple(idx[frozenset(k.mul(g, x) for x in c)] for c in cosets)
        for g in range(k.order)
    )
    return GSet(k, labels, act)


def gset_from_json(k: Group, data) -> GSet:
    """The K-set of a G-set file: ``{"set": [point, ...], "action": {label: [image, ...]}}``.

    ``action`` maps the label of every element of K to the images of the
    points of ``set``, in order.  Points are compared by their string form.
    A file of any other shape is a ``TrisectError``.
    """
    if not isinstance(data, dict) or not isinstance(data.get("set"), list) or not isinstance(data.get("action"), dict):
        raise TrisectError("gset file needs an object with a list 'set' and an object 'action'")
    points = [str(m) for m in data["set"]]
    if not points:
        raise TrisectError("gset file: 'set' is empty")
    pos = {m: i for i, m in enumerate(points)}
    if len(pos) != len(points):
        raise TrisectError("gset file: the points of 'set' are not distinct")
    act = []
    for lab in k.labels:
        row = data["action"].get(lab)
        if row is None:
            raise TrisectError(f"action missing group element {lab!r}")
        if not isinstance(row, list) or len(row) != len(points) or any(str(m) not in pos for m in row):
            raise TrisectError(f"the action of {lab!r} must be a list of {len(points)} points of 'set'")
        act.append(tuple(pos[str(m)] for m in row))
    return GSet(k, tuple(points), tuple(act))


def bimodule_group(c: Group, b: Group) -> Group:
    """K = C x B^op, which acts on the set M of a bimodule category over (C, B)."""
    return product(c, opposite(b), name=f"{c.name}x{b.name}^op")


@dataclass
class WeakConfig:
    """A transitive C x B^op-set M: the bimodule category of group data.

    K = C x B^op indexes (c, b) at c * |B| + b; ``k_of_c`` and ``k_of_b``
    embed C and B^op in K, and ``act_c`` and ``act_b`` act on M through them.
    """

    c_group: Group
    b_group: Group
    mset: GSet | None = None  # action of C x B^op; point action when omitted

    def __post_init__(self):
        self.k_group = bimodule_group(self.c_group, self.b_group)
        if self.mset is None:
            self.mset = point_gset(self.k_group)
        if self.mset.group.table != self.k_group.table:
            raise TrisectError("the G-set must carry an action of C x B^op")
        if not self.mset.is_transitive():
            raise TrisectError("the action must be transitive")

    @property
    def msize(self) -> int:
        return self.mset.size

    def k_of_c(self, c: int) -> int:
        return c * self.b_group.order

    def k_of_b(self, b: int) -> int:
        return b

    def act_c(self, c: int, m: int) -> int:
        return self.mset.apply(self.k_of_c(c), m)

    def act_b(self, m: int, b: int) -> int:
        return self.mset.apply(self.k_of_b(b), m)
