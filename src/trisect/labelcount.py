"""Admissible-labelling counts and region-based evaluation for group data.

Green and blue curves carry group elements, regions carry points of a finite
transitive C x B^op set, described by ``groups.WeakConfig`` (imported here,
so ``labelcount.WeakConfig`` names the same class); a labelling is admissible when region labels
transform across segments by the curve labels and the signed ordered product
along every red curve is trivial.  The count, suitably normalized, is a
4-manifold invariant.

Each count is one contraction of a network with integer entries.  Every
green or blue label is one wire, shared by the nodes of its red crossings
(and, for ``count_admissible``, of its segments); a chain of multiplications
in K = C x B^op along each red curve is pinned at the identity at both ends;
one node per green or blue segment relates the points of M on its two sides.
The enumerations the tests compare the network with state each condition
once more: ``iter_curve_labellings`` searches the curve labellings depth
first with ``red_product``, and ``iter_region_labellings`` tries every region
labelling against the segments.  The region-based evaluation with the simple
representations of ``hopf.weak_simple_reps``, read through
``hopf.crossed_index``, is an independent oracle for the averaged count; it
enumerates every labelling and is capped.  The oracles share
``_crossing_factor``; the network states the crossing factors and the
segment condition again, apart from them.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter

from .bracket import BracketConfig, CheckReport, InvariantValue, invariant
from .contraction import Node, accumulate, contract_network
from .diagram import BLUE, GREEN, RED, EmbeddedDiagram, TrisectionDiagram, validate, validate_embedded
from .errors import ResourceExceeded, TrisectError
from .groups import Group, WeakConfig
from .hopf import Rep, crossed_index, group_triplet, weak_simple_reps
from .scalars import Cyc

ONE = Cyc.rational(1)
ZERO = Cyc.rational(0)

# the most labellings the brute-force oracles enumerate (about 10 s of work)
BRUTE_FORCE_CAP = 100_000


# ---------------------------------------------------------------------------
# condition (ii): the signed ordered product along a red curve


def red_product(d: TrisectionDiagram, curve_id: str, curve_labels: dict[str, int], cfg: WeakConfig) -> int:
    """The product in K = C x B^op of the crossing factors along the curve."""
    lam = d.curve(curve_id)
    if lam.color != RED:
        raise TrisectError(f"{curve_id!r} is not a red curve")
    k = cfg.k_group
    acc = k.identity
    for xid in lam.visits:
        acc = k.mul(acc, _crossing_factor(d, xid, curve_id, curve_labels, cfg))
    return acc


def _crossing_factor(d: TrisectionDiagram, xid: str, curve_id: str, curve_labels: dict[str, int],
                     cfg: WeakConfig) -> int:
    """The factor in K of crossing ``xid`` on the red curve ``curve_id``, read from its partner's label."""
    partner, _ = d.end_on(xid, curve_id)
    if partner not in curve_labels:
        raise TrisectError(f"curve {partner!r} is unlabelled")
    label = curve_labels[partner]
    color = d.curve(partner).color
    positive = d.crossing(xid).sign == 1
    if color == GREEN:
        return cfg.k_of_c(cfg.c_group.inverse(label) if positive else label)
    if color == BLUE:
        return cfg.k_of_b(label if positive else cfg.b_group.inverse(label))
    raise TrisectError("red curves may not cross red curves")


def iter_curve_labellings(d: TrisectionDiagram, cfg: WeakConfig):
    """Depth-first enumeration of green/blue labellings satisfying condition (ii).

    Red products are pruned as soon as all partner curves of a red curve are
    labelled.  Exponential in the genus; the counts no longer use it, the
    tests compare them with it.
    """
    greens = sorted(c.id for c in d.curves_of_color(GREEN))
    blues = sorted(c.id for c in d.curves_of_color(BLUE))
    order = greens + blues
    pos = {cid: i for i, cid in enumerate(order)}
    reds = sorted(c.id for c in d.curves_of_color(RED))
    ready_at: dict[int, list[str]] = {}
    for rid in reds:
        partners = {d.end_on(x, rid)[0] for x in d.curve(rid).visits}
        step = max((pos[p] for p in partners), default=-1)
        ready_at.setdefault(step, []).append(rid)

    labels: dict[str, int] = {}

    def domain(cid: str) -> range:
        return range(cfg.c_group.order if d.curve(cid).color == GREEN else cfg.b_group.order)

    def rec(i: int):
        if i == len(order):
            yield dict(labels)
            return
        cid = order[i]
        for v in domain(cid):
            labels[cid] = v
            if all(
                red_product(d, rid, labels, cfg) == cfg.k_group.identity
                for rid in ready_at.get(i, [])
            ):
                yield from rec(i + 1)
        del labels[cid]

    yield from rec(0)


def count_curve_labellings(d: TrisectionDiagram, cfg: WeakConfig) -> int:
    """Number of green/blue labellings with trivial red products (the |M|=1 count)."""
    rep = validate(d)
    if not rep.ok:
        raise TrisectError(f"invalid diagram: {rep}")
    return _count(*_curve_network(d, cfg))


# ---------------------------------------------------------------------------
# condition (i): region labels across segments


def iter_region_labellings(e: EmbeddedDiagram, curve_labels: dict[str, int], cfg: WeakConfig,
                           boundary_label: int | None = None):
    """Every region labelling with m_left = label . m_right across each green or blue segment.

    Tries every labelling of the regions by points of M; capped up front.
    """
    _check_boundary_label(e, cfg, boundary_label)
    regions = sorted(e.regions)
    _check_enumeration(cfg.msize ** len(regions))
    segments = []
    for c in e.base.curves:
        if c.color == RED:
            continue
        label = curve_labels[c.id]
        if c.color == GREEN:
            to = [cfg.act_c(label, m) for m in range(cfg.msize)]
        else:
            to = [cfg.act_b(m, label) for m in range(cfg.msize)]
        segments += [(*e.sides(c.id, seg), to) for seg in range(e.n_segments(c.id))]
    points = [
        (boundary_label,) if boundary_label is not None and r == e.boundary_region else range(cfg.msize)
        for r in regions
    ]
    for combo in itertools.product(*points):
        m = dict(zip(regions, combo))
        if all(m[left] == to[m[right]] for left, right, to in segments):
            yield m


def count_admissible(e: EmbeddedDiagram, cfg: WeakConfig, boundary_label: int | None = None) -> int:
    """Number of admissible labellings (conditions (i) and (ii) together)."""
    rep = validate_embedded(e)
    if not rep.ok:
        raise TrisectError(f"invalid embedded diagram: {rep}")
    _check_boundary_label(e, cfg, boundary_label)
    return _count(*_admissible_network(e, cfg, boundary_label))


def _check_boundary_label(e: EmbeddedDiagram, cfg: WeakConfig, boundary_label: int | None) -> None:
    if boundary_label is None:
        if e.base.kind == "disc":
            raise TrisectError("a disc diagram needs a boundary label")
        return
    if e.boundary_region is None:
        raise TrisectError(f"boundary label {boundary_label} given, but the diagram has no boundary region")
    if not 0 <= boundary_label < cfg.msize:
        raise TrisectError(f"boundary label {boundary_label} is not a point of M")


def averaged_evaluation(e: EmbeddedDiagram, cfg: WeakConfig, boundary_label: int | None = None) -> Cyc:
    """|labellings| * |B|^r * |C|^r with r the number of red curves."""
    r = len(e.base.curves_of_color(RED))
    count = count_admissible(e, cfg, boundary_label)
    return Cyc.rational(count * (cfg.b_group.order * cfg.c_group.order) ** r)


# ---------------------------------------------------------------------------
# the counts as one integer tensor network
#
# Every label is a variable: the label of a green or blue curve, the running
# product in K before each crossing of a red curve, the point of M on a
# region.  Each node is 1 exactly where its variables satisfy one condition
# and 0 elsewhere, so the contraction sums 1 over the admissible labellings.
# The crossing factors are stated here again, apart from _crossing_factor, so
# that the enumerations above stay independent oracles for the network.


def _label(cid: str) -> str:
    return f"label:{cid}"


def _region(rid: str) -> str:
    return f"region:{rid}"


def _acc(rid: str, j: int) -> str:
    return f"acc:{rid}:{j}"


def _factors(d: TrisectionDiagram, xid: str, partner: str, cfg: WeakConfig) -> list[int]:
    """The factor in K of each label of ``partner``, green or blue, at crossing ``xid``."""
    positive = d.crossing(xid).sign == 1
    if d.curve(partner).color == GREEN:
        c = cfg.c_group
        return [cfg.k_of_c(c.inverse(x) if positive else x) for x in range(c.order)]
    b = cfg.b_group
    return [cfg.k_of_b(x if positive else b.inverse(x)) for x in range(b.order)]


def _curve_network(d: TrisectionDiagram, cfg: WeakConfig) -> tuple[list[Node], dict[str, int]]:
    """Condition (ii): a chain of multiplications in K along each red curve.

    Node j maps (acc_j, label) to acc_j * factor(label); one-entry nodes pin
    acc_0 and acc_n at the identity.  A crossing-free red curve is trivial.
    Every green and blue label is a variable, used or not.  Crossings with
    the same factors share one table.
    """
    dims = {_label(c.id): cfg.c_group.order for c in d.curves_of_color(GREEN)}
    dims |= {_label(c.id): cfg.b_group.order for c in d.curves_of_color(BLUE)}
    table = cfg.k_group.table
    accs = range(cfg.k_group.order)
    one = cfg.k_group.identity
    nodes = []
    tables: dict[tuple[int, ...], dict] = {}
    for lam in d.curves_of_color(RED):
        n = len(lam.visits)
        if n == 0:
            continue
        acc = [_acc(lam.id, j) for j in range(n + 1)]
        dims |= dict.fromkeys(acc, cfg.k_group.order)
        for j, xid in enumerate(lam.visits):
            partner, _ = d.end_on(xid, lam.id)
            factors = tuple(_factors(d, xid, partner, cfg))
            data = tables.get(factors)
            if data is None:
                data = tables[factors] = {(a, x, table[a][f]): 1 for a in accs for x, f in enumerate(factors)}
            nodes.append(Node(f"red:{lam.id}:{j}", (acc[j], _label(partner), acc[j + 1]), data))
        nodes.append(Node(f"pin:{acc[0]}", (acc[0],), {(one,): 1}))
        nodes.append(Node(f"pin:{acc[n]}", (acc[n],), {(one,): 1}))
    return nodes, dims


def _region_nodes(e: EmbeddedDiagram, cfg: WeakConfig, boundary_label: int | None) -> list[Node]:
    """Condition (i): one node per green or blue segment, nonzero where m_left = label . m_right."""
    nodes = []
    for c in e.base.curves:
        if c.color == RED:
            continue
        if c.color == GREEN:
            acts = [[cfg.act_c(x, m) for m in range(cfg.msize)] for x in range(cfg.c_group.order)]
        else:
            acts = [[cfg.act_b(m, x) for m in range(cfg.msize)] for x in range(cfg.b_group.order)]
        for seg in range(e.n_segments(c.id)):
            left, right = e.sides(c.id, seg)
            if left == right:
                wires = (_region(left), _label(c.id))
                data = {(m, x): 1 for x, row in enumerate(acts) for m, to in enumerate(row) if to == m}
            else:
                wires = (_region(left), _label(c.id), _region(right))
                data = {(to, x, m): 1 for x, row in enumerate(acts) for m, to in enumerate(row)}
            nodes.append(Node(f"seg:{c.id}:{seg}", wires, data))
    if boundary_label is not None:
        region = _region(e.boundary_region)
        nodes.append(Node(f"pin:{region}", (region,), {(boundary_label,): 1}))
    return nodes


def _admissible_network(e: EmbeddedDiagram, cfg: WeakConfig,
                        boundary_label: int | None) -> tuple[list[Node], dict[str, int]]:
    nodes, dims = _curve_network(e.base, cfg)
    nodes += _region_nodes(e, cfg, boundary_label)
    return nodes, dims | dict.fromkeys(map(_region, e.regions), cfg.msize)


def _count(nodes: list[Node], dims: dict[str, int]) -> int:
    """Contract the nodes once, each variable summed over wherever it appears.

    The engine sums a wire shared by any number of nodes; a variable on a
    single node is summed by an all-ones node, and one on no node
    contributes its dimension.
    """
    users = Counter(w for node in nodes for w in node.wires)
    factor = math.prod(dim for var, dim in dims.items() if var not in users)
    ones = [Node(f"sum:{var}", (var,), {(x,): 1 for x in range(dims[var])}) for var, k in users.items() if k == 1]
    value = contract_network(nodes + ones, dims)
    return factor * int(value.as_fraction())


# ---------------------------------------------------------------------------
# the literal region-based evaluation (oracle)


def brute_force_evaluation(
    e: EmbeddedDiagram,
    cfg: WeakConfig,
    curve_labels: dict[str, int],
    red_reps: dict[str, Rep],
    boundary_label: int | None = None,
):
    """Evaluate one full labelling: a trace per red curve, summed over the admissible region labellings."""
    msz, ix = cfg.msize, crossed_index(cfg.mset)
    total = ZERO
    for regions in iter_region_labellings(e, curve_labels, cfg, boundary_label):
        term = ONE
        for lam in e.base.curves_of_color(RED):
            rep = red_reps[lam.id]
            n = len(lam.visits)
            left, right = e.sides(lam.id, (n - 1) % max(1, n))
            mat = _rep_matrix_of(rep, [ix(regions[right], regions[left], 0)])
            for xid in lam.visits:
                k = _crossing_factor(e.base, xid, lam.id, curve_labels, cfg)
                mat = _mat_mul(mat, _rep_matrix_of(rep, [ix(m1, m2, k) for m1 in range(msz) for m2 in range(msz)]))
            term = term * sum(mat.get((r, r), 0) for r in range(rep.dim))
        total = total + term
    return total


def _check_enumeration(count: int) -> None:
    if count > BRUTE_FORCE_CAP:
        raise ResourceExceeded(count, BRUTE_FORCE_CAP, "labellings to enumerate")


def _rep_matrix_of(rep: Rep, indices: list[int]) -> dict:
    out: dict = {}
    for i in indices:
        for key, v in rep.mats[i].items():
            accumulate(out, key, v)
    return out


def _mat_mul(a: dict, b: dict) -> dict:
    by_row: dict[int, list] = {}
    for (r, s), v in b.items():
        by_row.setdefault(r, []).append((s, v))
    out: dict = {}
    for (r, s), v in a.items():
        for s2, v2 in by_row.get(s, ()):
            accumulate(out, (r, s2), v * v2)
    return out


def averaged_by_brute_force(e: EmbeddedDiagram, cfg: WeakConfig, boundary_label: int | None = None):
    """Sum of evaluations over all labellings, weighted by representation dimensions.

    Independent oracle for ``averaged_evaluation``: no admissibility shortcut
    is taken anywhere.
    """
    reps = weak_simple_reps(cfg.mset)
    greens = sorted(c.id for c in e.base.curves_of_color(GREEN))
    blues = sorted(c.id for c in e.base.curves_of_color(BLUE))
    reds = sorted(c.id for c in e.base.curves_of_color(RED))
    _check_enumeration(cfg.c_group.order ** len(greens) * cfg.b_group.order ** len(blues)
                       * len(reps) ** len(reds) * cfg.msize ** len(e.regions))
    labellings = (
        dict(zip(greens, gl)) | dict(zip(blues, bl))
        for gl in itertools.product(range(cfg.c_group.order), repeat=len(greens))
        for bl in itertools.product(range(cfg.b_group.order), repeat=len(blues))
    )
    return sum(
        (
            Cyc.rational(math.prod(rep.dim for rep in rp))
            * brute_force_evaluation(e, cfg, labels, dict(zip(reds, rp)), boundary_label)
            for labels in labellings
            for rp in itertools.product(reps, repeat=len(reds))
        ),
        ZERO,
    )


# ---------------------------------------------------------------------------
# the closed-form invariant and the cross-checks


def group_count_invariant(t: TrisectionDiagram | EmbeddedDiagram, cfg: WeakConfig) -> InvariantValue:
    """|labellings| * (|B| |C|)^(-genus/3), exact."""
    if isinstance(t, EmbeddedDiagram):
        count = count_admissible(t, cfg)
        genus = t.base.genus
    else:
        count = cfg.msize * count_curve_labellings(t, cfg)
        genus = t.genus
    base = cfg.b_group.order * cfg.c_group.order
    return InvariantValue(Cyc.rational(count), Cyc.rational(base), genus)


@functools.lru_cache(maxsize=8)
def _point_bracket_config(c: Group, b: Group) -> BracketConfig:
    """The bracket configuration of the point triplet of (C, B); it keeps its S^4 bracket."""
    return BracketConfig(group_triplet(c, b))


def coincidence_check(t: TrisectionDiagram | EmbeddedDiagram, cfg: WeakConfig) -> CheckReport:
    """Counting invariant == |M| times the bracket invariant of the point triplet.

    An embedded diagram is counted over its regions and bracketed as its base
    diagram.  The count is computed before the point bracket: in the other
    order its intermediates coexist with the cached point triplet, and peak
    memory rises.
    """
    d = t.base if isinstance(t, EmbeddedDiagram) else t
    return CheckReport.agreement("counting vs bracket invariant", {
        "count_invariant": group_count_invariant(t, cfg),
        "|M| * bracket_invariant": invariant(d, _point_bracket_config(cfg.c_group, cfg.b_group)).scaled(cfg.msize),
    })
