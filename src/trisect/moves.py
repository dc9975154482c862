"""Generators for the moves that connect diagrams of diffeomorphic 4-manifolds.

All moves act on the abstract crossing data and return fresh diagrams.  The
handle slide pushes a parallel copy of one curve onto another of the same
colour; on the third curve through each copied crossing, the new crossing is
inserted on the side the third curve exits towards, so the copy stays on one
side of the slid-over curve (this keeps the signed ordered products along red
curves conjugation-trivial for noncommutative labels as well).

random_move draws from every applicable two-point deletion and three-point
flip.  These are enumerated from the pairs of crossings that are consecutive
on some curve, which is O(N) in the number of crossings: a deletion is such a
pair, and a flip such a pair p, q with a crossing r that neighbours p on p's
other curve and q on q's other curve.  Each candidate is checked by the same
precondition the move itself checks, and the lists are sorted by position in
``d.crossings`` (the order of ``itertools.combinations``), since the seeded
draws index into them.
"""

from __future__ import annotations

import inspect
import random
from collections.abc import Iterable
from dataclasses import dataclass

from .diagram import (
    COLORS,
    PAIR_FIRST,
    Crossing,
    Curve,
    TrisectionDiagram,
    connected_sum,
    standard_s4,
)
from .errors import MoveNotApplicable, NoStandardSummand, TrisectError

@dataclass
class MoveSpec:
    variant: str
    params: dict

    @classmethod
    def from_json(cls, data: dict) -> "MoveSpec":
        """A spec from one JSON move entry; the parameters must match the generator's signature."""
        if not isinstance(data, dict) or "move" not in data:
            raise TrisectError("each move entry must be an object with a 'move' key")
        variant = data["move"]
        if not isinstance(variant, str) or variant not in _GENERATORS:
            raise TrisectError(f"unknown move {variant!r}")
        params = {k: v for k, v in data.items() if k != "move"}
        # the generators annotate every parameter after the diagram as "str" or "int"
        expected = list(inspect.signature(_GENERATORS[variant]).parameters.values())[1:]
        names = {a.name for a in expected}
        unknown = sorted(set(params) - names)
        if unknown:
            raise TrisectError(f"{variant} takes no parameter {unknown[0]!r} (it takes {sorted(names)})")
        for a in expected:
            if a.name not in params:
                if a.default is inspect.Parameter.empty:
                    raise TrisectError(f"{variant} needs the parameter {a.name!r}")
                continue
            value = params[a.name]
            # bool is a subclass of int; a JSON true is not a position
            if type(value) is not {"int": int, "str": str}[a.annotation]:
                raise TrisectError(f"{variant} parameter {a.name!r} must be of type {a.annotation}, got {value!r}")
        return cls(variant, params)


def apply_move(d: TrisectionDiagram, spec: MoveSpec) -> TrisectionDiagram:
    return _GENERATORS[spec.variant](d, **spec.params)


# ---------------------------------------------------------------------------
# rebuilding helper: moves edit visit lists, ends are recomputed


def _assemble(
    d: TrisectionDiagram,
    visits: dict[str, list[str]],
    signs: dict[str, int],
) -> TrisectionDiagram:
    positions: dict[str, list[tuple[str, int]]] = {}
    curves = []
    for c in d.curves:
        vs = visits.get(c.id, list(c.visits))
        curves.append(Curve(c.id, c.color, tuple(vs)))
        for i, xid in enumerate(vs):
            positions.setdefault(xid, []).append((c.id, i))
    crossings = []
    for xid in sorted(positions):
        ends = positions[xid]
        if len(ends) != 2:
            raise TrisectError(f"crossing {xid!r} has {len(ends)} ends after the move")
        crossings.append(Crossing(xid, signs[xid], (ends[0], ends[1])))
    return TrisectionDiagram(d.genus, d.kind, tuple(curves), tuple(crossings), d.declared_k)


def _signs(d: TrisectionDiagram) -> dict[str, int]:
    return {x.id: x.sign for x in d.crossings}


def _fresh_ids(d: TrisectionDiagram, prefix: str, count: int) -> list[str]:
    taken = {x.id for x in d.crossings} | {c.id for c in d.curves}
    out = []
    k = 1
    while len(out) < count:
        cand = f"{prefix}{k}"
        if cand not in taken:
            out.append(cand)
        k += 1
    return out


# ---------------------------------------------------------------------------
# the generators


def shift_basepoint(d: TrisectionDiagram, curve: str, offset: int) -> TrisectionDiagram:
    c = d.curve(curve)
    n = len(c.visits)
    if n == 0:
        return d
    r = offset % n
    return _assemble(d, {curve: list(c.visits[r:] + c.visits[:r])}, _signs(d))


def reverse_orientation(d: TrisectionDiagram, curve: str) -> TrisectionDiagram:
    c = d.curve(curve)
    signs = _signs(d)
    for xid in c.visits:
        signs[xid] = -signs[xid]
    return _assemble(d, {curve: list(reversed(c.visits))}, signs)


def two_point_insert(
    d: TrisectionDiagram,
    curve_a: str,
    pos_a: int,
    curve_b: str,
    pos_b: int,
    sign: int = 1,
) -> TrisectionDiagram:
    ca, cb = d.curve(curve_a), d.curve(curve_b)
    if ca.color == cb.color:
        raise MoveNotApplicable("two-point insertion needs curves of different colours")
    if sign not in (1, -1):
        raise MoveNotApplicable("sign must be +1 or -1")
    if not (0 <= pos_a <= len(ca.visits)) or not (0 <= pos_b <= len(cb.visits)):
        raise MoveNotApplicable("insertion position out of range")
    p, q = _fresh_ids(d, "tp", 2)
    va = list(ca.visits)
    vb = list(cb.visits)
    va[pos_a:pos_a] = [p, q]
    vb[pos_b:pos_b] = [p, q]
    signs = _signs(d)
    signs[p] = sign
    signs[q] = -sign
    return _assemble(d, {curve_a: va, curve_b: vb}, signs)


def _cyclically_adjacent(visits: tuple[str, ...], a: str, b: str) -> bool:
    n = len(visits)
    ia, ib = visits.index(a), visits.index(b)
    return n >= 2 and ((ib - ia) % n == 1 or (ia - ib) % n == 1)


def _deletion_blocker(d: TrisectionDiagram, p: str, q: str) -> str | None:
    """Why two_point_delete(d, p, q) does not apply, or None when it does."""
    xp, xq = d.crossing(p), d.crossing(q)
    pair = sorted({c for c, _ in xp.ends})
    if pair != sorted({c for c, _ in xq.ends}):
        return "the two crossings do not join the same pair of curves"
    if xp.sign != -xq.sign:
        return "the two crossings must have opposite signs"
    for cid in pair:
        if not _cyclically_adjacent(d.curve(cid).visits, p, q):
            return f"crossings are not consecutive on {cid!r}"
    return None


def two_point_delete(d: TrisectionDiagram, p: str, q: str) -> TrisectionDiagram:
    if reason := _deletion_blocker(d, p, q):
        raise MoveNotApplicable(reason)
    visits = {}
    for cid, _ in d.crossing(p).ends:
        visits[cid] = [x for x in d.curve(cid).visits if x not in (p, q)]
    signs = _signs(d)
    del signs[p], signs[q]
    return _assemble(d, visits, signs)


def _flip_blocker(d: TrisectionDiagram, p: str, q: str, r: str) -> str | None:
    """Why three_point_flip(d, p, q, r) does not apply, or None when it does."""
    xs = [d.crossing(x) for x in (p, q, r)]
    curve_ids = sorted({c for x in xs for c, _ in x.ends})
    if len(curve_ids) != 3:
        return "the crossings must pairwise join three curves"
    if len({d.curve(c).color for c in curve_ids}) != 3:
        return "the three curves must have three distinct colours"
    per_curve: dict[str, list[str]] = {c: [] for c in curve_ids}
    for x in xs:
        for c, _ in x.ends:
            per_curve[c].append(x.id)
    if any(len(v) != 2 for v in per_curve.values()):
        return "each curve must carry exactly two of the crossings"
    for cid, (x1, x2) in per_curve.items():
        if not _cyclically_adjacent(d.curve(cid).visits, x1, x2):
            return f"the triangle crossings are not consecutive on {cid!r}"
    return None


def three_point_flip(d: TrisectionDiagram, p: str, q: str, r: str) -> TrisectionDiagram:
    if reason := _flip_blocker(d, p, q, r):
        raise MoveNotApplicable(reason)
    # each of the three curves carries two of the crossings; swap them there
    visits: dict[str, list[str]] = {}
    for x in (p, q, r):
        for cid, _ in d.crossing(x).ends:
            visits.setdefault(cid, list(d.curve(cid).visits))
    for vs in visits.values():
        i1, i2 = (i for i, x in enumerate(vs) if x in (p, q, r))
        vs[i1], vs[i2] = vs[i2], vs[i1]
    return _assemble(d, visits, _signs(d))


def handle_slide(
    d: TrisectionDiagram,
    curve: str,
    over: str,
    pos: int = 0,
    start: int = 0,
    direction: int = 1,
) -> TrisectionDiagram:
    lam, mu = d.curve(curve), d.curve(over)
    if lam.id == mu.id:
        raise MoveNotApplicable("cannot slide a curve over itself")
    if lam.color != mu.color:
        raise MoveNotApplicable("handle slides need two curves of the same colour")
    if direction not in (1, -1):
        raise MoveNotApplicable("direction must be +1 or -1")
    if not (0 <= pos <= len(lam.visits)):
        raise MoveNotApplicable("insertion position out of range")
    m = len(mu.visits)
    if m == 0:
        return d
    start %= m
    new_ids = _fresh_ids(d, "hs", m)
    signs = _signs(d)
    order = [(start + direction * t) % m for t in range(m)]
    # third-curve insertion side: the parallel copy lies on one fixed side of
    # the slid-over curve, so the new crossing lands after the old one when
    # the third curve exits to that side, before it otherwise
    inserts: dict[str, list[tuple[str, str, bool]]] = {}
    for t, idx in enumerate(order):
        xid = mu.visits[idx]
        x = d.crossing(xid)
        nu, _ = d.end_on(xid, mu.id)
        eps = x.sign
        mu_first = PAIR_FIRST[frozenset((mu.color, d.curve(nu).color))] == mu.color
        exits_left = (eps == 1) if mu_first else (eps == -1)
        signs[new_ids[t]] = eps * direction
        inserts.setdefault(nu, []).append((xid, new_ids[t], exits_left))
    visits = {lam.id: list(lam.visits[:pos]) + new_ids + list(lam.visits[pos:])}
    for nu, items in inserts.items():
        vs: list[str] = []
        before = {xid: yid for xid, yid, left in items if not left}
        after = {xid: yid for xid, yid, left in items if left}
        for xid in d.curve(nu).visits:
            if xid in before:
                vs.append(before[xid])
            vs.append(xid)
            if xid in after:
                vs.append(after[xid])
        visits[nu] = vs
    return _assemble(d, visits, signs)


def stabilize(d: TrisectionDiagram) -> TrisectionDiagram:
    if d.kind != "closed":
        raise MoveNotApplicable("stabilization needs a closed diagram")
    return connected_sum(d, standard_s4())


def _handle_pattern(d: TrisectionDiagram, comp: list[str]) -> str | None:
    """Colour of the meridian when the component is a standard handle, else None."""
    if len(comp) != 3:
        return None
    curves = [d.curve(c) for c in comp]
    if {c.color for c in curves} != set(COLORS):
        return None
    lengths = sorted(len(c.visits) for c in curves)
    if lengths != [1, 1, 2]:
        return None
    meridian = next(c for c in curves if len(c.visits) == 2)
    return meridian.color


def destabilize(d: TrisectionDiagram) -> TrisectionDiagram:
    by_type: dict[str, list[list[str]]] = {}
    for comp in d.components():
        t = _handle_pattern(d, comp)
        if t is not None:
            by_type.setdefault(t, []).append(comp)
    if not all(color in by_type for color in COLORS):
        raise NoStandardSummand("no split standard S^4 summand (one handle of each type) found")
    if d.genus - 3 < 1:
        raise MoveNotApplicable("destabilizing would leave a diagram of genus < 1")
    drop: set[str] = set()
    for color in COLORS:
        drop |= set(sorted(by_type[color])[0])
    curves = tuple(c for c in d.curves if c.id not in drop)
    keep_x = {x for c in curves for x in c.visits}
    crossings = tuple(x for x in d.crossings if x.id in keep_x)
    k = None if d.declared_k is None else d.declared_k - 1
    return TrisectionDiagram(d.genus - 3, d.kind, curves, crossings, k)


_GENERATORS = {
    "shift_basepoint": shift_basepoint,
    "reverse_orientation": reverse_orientation,
    "two_point_insert": two_point_insert,
    "two_point_delete": two_point_delete,
    "three_point_flip": three_point_flip,
    "handle_slide": handle_slide,
    "stabilize": stabilize,
    "destabilize": destabilize,
}


# ---------------------------------------------------------------------------
# random move sampling (regression harness)


def _neighbours(d: TrisectionDiagram) -> dict[tuple[str, str], set[str]]:
    """The cyclic neighbours of each crossing on each curve through it, by (crossing, curve)."""
    out = {}
    for c in d.curves:
        vs = c.visits
        for i, x in enumerate(vs):
            out[x, c.id] = {vs[i - 1], vs[(i + 1) % len(vs)]} - {x}
    return out


def _in_crossing_order(d: TrisectionDiagram, found: Iterable[tuple[str, ...]]) -> list[tuple[str, ...]]:
    """The distinct sets of crossing ids in found, each and all in d.crossings position order."""
    pos = {x.id: i for i, x in enumerate(d.crossings)}
    ids = [x.id for x in d.crossings]
    return [tuple(ids[i] for i in t) for t in sorted({tuple(sorted(pos[x] for x in f)) for f in found})]


def applicable_deletions(d: TrisectionDiagram) -> list[tuple[str, str]]:
    """Every (p, q) that two_point_delete accepts, sorted by position in d.crossings.

    The two crossings follow each other on both their curves, so the
    candidates are the O(N) consecutive pairs on each curve, each checked by
    the move's own precondition.  The order is the one itertools.combinations
    gives over d.crossings, which random_move's seeded draws depend on.
    """
    nb = _neighbours(d)
    pairs = _in_crossing_order(d, ((p, q) for (p, _), qs in nb.items() for q in qs))
    return [(p, q) for p, q in pairs if _deletion_blocker(d, p, q) is None]


def applicable_triangles(d: TrisectionDiagram) -> list[tuple[str, str, str]]:
    """Every (p, q, r) that three_point_flip accepts, sorted by position in d.crossings.

    Two of the crossings, p and q, follow each other on some curve; r then
    neighbours p on p's other curve and q on q's other curve.  The candidates
    come from the O(N) consecutive pairs, each checked by the move's own
    precondition, in the order random_move's seeded draws depend on.
    """
    nb = _neighbours(d)
    found = [
        (p, q, r)
        for (p, c), qs in nb.items()
        for q in qs
        for r in nb[p, d.end_on(p, c)[0]] & nb[q, d.end_on(q, c)[0]]
    ]
    return [(p, q, r) for p, q, r in _in_crossing_order(d, found) if _flip_blocker(d, p, q, r) is None]


def random_move(d: TrisectionDiagram, rng: random.Random, max_visits: int = 8) -> tuple[MoveSpec, TrisectionDiagram]:
    """One random applicable move, keeping curves below max_visits crossings."""
    options: list[MoveSpec] = []
    for c in d.curves:
        if c.visits:
            options.append(MoveSpec("shift_basepoint", {"curve": c.id, "offset": rng.randrange(1, len(c.visits) + 1)}))
        options.append(MoveSpec("reverse_orientation", {"curve": c.id}))
    small = [c for c in d.curves if len(c.visits) < max_visits]
    for _ in range(4):
        if len(small) < 2:
            break
        ca, cb = rng.sample(small, 2)
        if ca.color == cb.color:
            continue
        options.append(
            MoveSpec(
                "two_point_insert",
                {
                    "curve_a": ca.id,
                    "pos_a": rng.randrange(len(ca.visits) + 1),
                    "curve_b": cb.id,
                    "pos_b": rng.randrange(len(cb.visits) + 1),
                    "sign": rng.choice((1, -1)),
                },
            )
        )
    dels = applicable_deletions(d)
    if dels:
        p, q = rng.choice(dels)
        options.append(MoveSpec("two_point_delete", {"p": p, "q": q}))
    tris = applicable_triangles(d)
    if tris:
        p, q, r = rng.choice(tris)
        options.append(MoveSpec("three_point_flip", {"p": p, "q": q, "r": r}))
    for color in COLORS:
        cs = [c for c in d.curves_of_color(color)]
        if len(cs) >= 2:
            lam, mu = rng.sample(cs, 2)
            if len(lam.visits) + len(mu.visits) <= max_visits:
                options.append(
                    MoveSpec(
                        "handle_slide",
                        {
                            "curve": lam.id,
                            "over": mu.id,
                            "pos": rng.randrange(len(lam.visits) + 1),
                            "start": rng.randrange(max(1, len(mu.visits))),
                            "direction": rng.choice((1, -1)),
                        },
                    )
                )
    # every option applies: insertions join two colours, slides two curves of
    # one colour, and deletions and flips come from the moves' own blockers
    rng.shuffle(options)
    if not options:
        raise TrisectError("no applicable move found")
    return options[0], apply_move(d, options[0])
