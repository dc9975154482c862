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
The depth-first enumeration (``iter_curve_labellings`` with ``red_product``,
and ``iter_region_labellings``) is kept as the oracle the tests compare the
network with.  The region-based evaluation with the simple representations
of ``hopf.weak_simple_reps``, read through ``hopf.crossed_index``, is an
independent oracle for the averaged count; it enumerates every labelling and
is capped.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .bracket import BracketConfig, CheckReport, InvariantValue, invariant
from .contraction import Node, contract_network
from .diagram import BLUE, GREEN, RED, EmbeddedDiagram, TrisectionDiagram, validate_embedded
from .errors import ResourceExceeded, TrisectError
from .groups import WeakConfig
from .hopf import Rep, crossed_index, group_triplet, weak_simple_reps
from .hopf import _acc as _add_entry
from .scalars import Cyc

ONE = Cyc.rational(1)

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
        partner, _ = d.end_on(xid, curve_id)
        color = d.curve(partner).color
        if partner not in curve_labels:
            raise TrisectError(f"curve {partner!r} is unlabelled")
        label = curve_labels[partner]
        eps = d.crossing(xid).sign
        if color == GREEN:
            c = cfg.c_group.inverse(label) if eps == 1 else label
            factor = cfg.k_of_c(c)
        elif color == BLUE:
            b = label if eps == 1 else cfg.b_group.inverse(label)
            factor = cfg.k_of_b(b)
        else:
            raise TrisectError("red curves may not cross red curves")
        acc = k.mul(acc, factor)
    return acc


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
    for rid in ready_at.get(-1, []):
        if red_product(d, rid, {}, cfg) != cfg.k_group.identity:
            return

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
    return _count(*_curve_network(d, cfg))


# ---------------------------------------------------------------------------
# condition (i): region labels across segments


def _segment_constraints(e: EmbeddedDiagram, curve_labels: dict[str, int], cfg: WeakConfig):
    """Edges (left_region, right_region, map right-label -> left-label)."""
    edges = []
    for c in e.base.curves:
        if c.color == RED:
            continue
        label = curve_labels[c.id]
        for seg in range(e.n_segments(c.id)):
            left, right = e.sides(c.id, seg)
            if c.color == GREEN:
                edges.append((left, right, tuple(cfg.act_c(label, m) for m in range(cfg.msize))))
            else:
                edges.append((left, right, tuple(cfg.act_b(m, label) for m in range(cfg.msize))))
    return edges


def iter_region_labellings(e: EmbeddedDiagram, curve_labels: dict[str, int], cfg: WeakConfig,
                           boundary_label: int | None = None):
    regions = sorted(e.regions)
    edges = _segment_constraints(e, curve_labels, cfg)
    adj: dict[str, list] = {r: [] for r in regions}
    for left, right, fwd in edges:
        inv = [None] * cfg.msize
        for m, l in enumerate(fwd):
            inv[l] = m
        adj[right].append((left, fwd))
        adj[left].append((right, tuple(inv)))

    seen: set[str] = set()
    components = []
    for r in regions:
        if r in seen:
            continue
        comp = [r]
        seen.add(r)
        stack = [r]
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        components.append(sorted(comp))

    def component_assignments(comp):
        seed = comp[0]
        seeds = range(cfg.msize)
        if boundary_label is not None and e.boundary_region in comp:
            seed = e.boundary_region
            seeds = (boundary_label,)
        out = []
        for m0 in seeds:
            assign = {seed: m0}
            stack = [seed]
            ok = True
            while stack and ok:
                u = stack.pop()
                for v, to_v in adj[u]:
                    val = to_v[assign[u]]
                    if v in assign:
                        if assign[v] != val:
                            ok = False
                            break
                    else:
                        assign[v] = val
                        stack.append(v)
            if not ok:
                continue
            good = all(assign[left] == fwd[assign[right]] for left, right, fwd in edges
                       if left in assign and right in assign)
            if good:
                out.append(assign)
        return out

    per_comp = [component_assignments(c) for c in components]

    def combine(i, acc):
        if i == len(per_comp):
            yield dict(acc)
            return
        for assign in per_comp[i]:
            acc.update(assign)
            yield from combine(i + 1, acc)
        for k in per_comp[i][0] if per_comp[i] else ():
            acc.pop(k, None)

    if all(per_comp):
        yield from combine(0, {})


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
# The crossing factors are stated here again, apart from red_product, so that
# the enumeration above stays an independent oracle for the network.


def _label(cid: str) -> str:
    return f"label:{cid}"


def _region(rid: str) -> str:
    return f"region:{rid}"


def _acc(rid: str, j: int) -> str:
    return f"acc:{rid}:{j}"


def _factors(d: TrisectionDiagram, xid: str, partner: str, cfg: WeakConfig) -> list[int]:
    """The factor in K of each label of ``partner`` at crossing ``xid``."""
    color = d.curve(partner).color
    positive = d.crossing(xid).sign == 1
    if color == GREEN:
        c = cfg.c_group
        return [cfg.k_of_c(c.inverse(x) if positive else x) for x in range(c.order)]
    if color == BLUE:
        b = cfg.b_group
        return [cfg.k_of_b(x if positive else b.inverse(x)) for x in range(b.order)]
    raise TrisectError("red curves may not cross red curves")


def _curve_network(d: TrisectionDiagram, cfg: WeakConfig) -> tuple[list[Node], dict[str, int]]:
    """Condition (ii): a chain of multiplications in K along each red curve.

    Node j maps (acc_j, label) to acc_j * factor(label); one-entry nodes pin
    acc_0 and acc_n at the identity.  A crossing-free red curve is trivial.
    Every green and blue label is a variable, used or not.
    """
    dims = {_label(c.id): cfg.c_group.order for c in d.curves_of_color(GREEN)}
    dims |= {_label(c.id): cfg.b_group.order for c in d.curves_of_color(BLUE)}
    table = cfg.k_group.table
    accs = range(cfg.k_group.order)
    one = cfg.k_group.identity
    nodes = []
    for lam in d.curves_of_color(RED):
        n = len(lam.visits)
        if n == 0:
            continue
        acc = [_acc(lam.id, j) for j in range(n + 1)]
        dims |= dict.fromkeys(acc, cfg.k_group.order)
        for j, xid in enumerate(lam.visits):
            partner, _ = d.end_on(xid, lam.id)
            factors = _factors(d, xid, partner, cfg)
            data = {(a, x, table[a][f]): 1 for a in accs for x, f in enumerate(factors)}
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
    """Evaluate one full labelling: delta factors per segment, a trace per red curve."""
    msz, ix = cfg.msize, crossed_index(cfg.mset)
    total = None
    for regions in _all_region_labellings(e, cfg, boundary_label):
        ok = True
        for c in e.base.curves:
            if c.color == RED or not ok:
                continue
            label = curve_labels[c.id]
            for seg in range(e.n_segments(c.id)):
                left, right = e.sides(c.id, seg)
                ml, mr = regions[left], regions[right]
                if c.color == GREEN and ml != cfg.act_c(label, mr):
                    ok = False
                    break
                if c.color == BLUE and ml != cfg.act_b(mr, label):
                    ok = False
                    break
        if not ok:
            continue
        term = ONE
        for lam in e.base.curves_of_color(RED):
            rep = red_reps[lam.id]
            n = len(lam.visits)
            base_seg = (n - 1) % max(1, n)
            left, right = e.sides(lam.id, base_seg)
            m1, m2 = regions[right], regions[left]
            mat = _rep_matrix_of(rep, [ix(m1, m2, 0)])
            for xid in lam.visits:
                partner, _ = e.base.end_on(xid, lam.id)
                color = e.base.curve(partner).color
                label = curve_labels[partner]
                eps = e.base.crossing(xid).sign
                if color == GREEN:
                    c = cfg.c_group.inverse(label) if eps == 1 else label
                    kk = cfg.k_of_c(c)
                else:
                    b = label if eps == 1 else cfg.b_group.inverse(label)
                    kk = cfg.k_of_b(b)
                step = _rep_matrix_of(rep, [ix(m, n, kk) for m in range(msz) for n in range(msz)])
                mat = _mat_mul(mat, step)
            tr = None
            for r in range(rep.dim):
                v = mat.get((r, r))
                if v is not None:
                    tr = v if tr is None else tr + v
            if tr is None:
                term = None
                break
            term = term * tr
        if term:
            total = term if total is None else total + term
    return ONE * 0 if total is None else total


def _check_enumeration(count: int) -> None:
    if count > BRUTE_FORCE_CAP:
        raise ResourceExceeded(count, BRUTE_FORCE_CAP, "labellings to enumerate")


def _all_region_labellings(e: EmbeddedDiagram, cfg: WeakConfig, boundary_label: int | None):
    _check_boundary_label(e, cfg, boundary_label)
    regions = sorted(e.regions)
    _check_enumeration(cfg.msize ** len(regions))
    combos = itertools.product(range(cfg.msize), repeat=len(regions))
    assigns = (dict(zip(regions, combo)) for combo in combos)
    if boundary_label is None:
        return assigns
    return (assign for assign in assigns if assign.get(e.boundary_region) == boundary_label)


def _rep_matrix_of(rep: Rep, indices: list[int]) -> dict:
    out: dict = {}
    for i in indices:
        for key, v in rep.mats[i].items():
            _add_entry(out, key, v)
    return out


def _mat_mul(a: dict, b: dict) -> dict:
    by_row: dict[int, list] = {}
    for (r, s), v in b.items():
        by_row.setdefault(r, []).append((s, v))
    out: dict = {}
    for (r, s), v in a.items():
        for s2, v2 in by_row.get(s, ()):
            _add_entry(out, (r, s2), v * v2)
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
    total = None
    for gl in itertools.product(range(cfg.c_group.order), repeat=len(greens)):
        for bl in itertools.product(range(cfg.b_group.order), repeat=len(blues)):
            labels = dict(zip(greens, gl)) | dict(zip(blues, bl))
            for rp in itertools.product(reps, repeat=len(reds)):
                weight = 1
                for rep in rp:
                    weight *= rep.dim
                ev = brute_force_evaluation(e, cfg, labels, dict(zip(reds, rp)), boundary_label)
                term = Cyc.rational(weight) * ev
                total = term if total is None else total + term
    return ONE * 0 if total is None else total


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


def coincidence_check(t: TrisectionDiagram, cfg: WeakConfig) -> CheckReport:
    """Counting invariant == |M| times the bracket invariant of the point triplet."""
    counted = group_count_invariant(t, cfg)
    strong = group_triplet(cfg.c_group, cfg.b_group)
    ccc = invariant(t, BracketConfig(strong))
    ok = counted == ccc.scaled(cfg.msize)
    return CheckReport(
        "counting vs bracket invariant",
        ok,
        {
            "count_invariant": str(counted.approx()),
            "|M| * bracket_invariant": str(ccc.scaled(cfg.msize).approx()),
        },
    )
