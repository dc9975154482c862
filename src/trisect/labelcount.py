"""Admissible-labelling counts and region-based evaluation for group data.

Green and blue curves carry group elements, regions carry points of a finite
transitive C x B^op set; a labelling is admissible when region labels
transform across segments by the curve labels and the signed ordered product
along every red curve is trivial.  The count, suitably normalized, is a
4-manifold invariant; the region-based evaluation with explicit simple
representations serves as an independent oracle for the averaged count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bracket import BracketConfig, CheckReport, InvariantValue, invariant
from .diagram import BLUE, GREEN, RED, EmbeddedDiagram, TrisectionDiagram, validate_embedded
from .errors import TrisectError
from .groups import GSet, Group, opposite, point_gset, product
from .hopf import Rep, group_triplet, weak_simple_reps
from .scalars import Cyc, is_zero

ONE = Cyc.rational(1)


@dataclass
class WeakConfig:
    c_group: Group
    b_group: Group
    mset: GSet | None = None  # action of C x B^op; point action when omitted
    stabilizer_irreps: dict | None = None

    def __post_init__(self):
        self.k_group = product(self.c_group, opposite(self.b_group),
                               name=f"{self.c_group.name}x{self.b_group.name}^op")
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

    def simple_reps(self) -> list[Rep]:
        return weak_simple_reps(self.mset, self.stabilizer_irreps)


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
    labelled.
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
    return sum(1 for _ in iter_curve_labellings(d, cfg))


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
    if e.base.kind == "disc" and boundary_label is None:
        raise TrisectError("a disc diagram needs a boundary label")
    total = 0
    for labels in iter_curve_labellings(e.base, cfg):
        total += sum(1 for _ in iter_region_labellings(e, labels, cfg, boundary_label))
    return total


def averaged_evaluation(e: EmbeddedDiagram, cfg: WeakConfig, boundary_label: int | None = None) -> Cyc:
    """|labellings| * |B|^r * |C|^r with r the number of red curves."""
    r = len(e.base.curves_of_color(RED))
    count = count_admissible(e, cfg, boundary_label)
    return Cyc.rational(count * (cfg.b_group.order * cfg.c_group.order) ** r)


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
    if e.base.kind == "disc" and boundary_label is None:
        raise TrisectError("a disc diagram needs a boundary label")
    msz, ksz = cfg.msize, cfg.k_group.order

    def ix(m, n, k):
        return (m * msz + n) * ksz + k

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
            mat = _rep_matrix_of(rep, [ix(m1, m2, 0)], msz, ksz)
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
                step = _rep_matrix_of(rep, [ix(m, n, kk) for m in range(msz) for n in range(msz)], msz, ksz)
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
        if term is not None and not is_zero(term):
            total = term if total is None else total + term
    return ONE * 0 if total is None else total


def _all_region_labellings(e: EmbeddedDiagram, cfg: WeakConfig, boundary_label: int | None):
    import itertools

    regions = sorted(e.regions)
    for combo in itertools.product(range(cfg.msize), repeat=len(regions)):
        assign = dict(zip(regions, combo))
        if boundary_label is not None and assign.get(e.boundary_region) != boundary_label:
            continue
        yield assign


def _rep_matrix_of(rep: Rep, indices: list[int], msz: int, ksz: int) -> dict:
    out: dict = {}
    for i in indices:
        for key, v in rep.mats[i].items():
            cur = out.get(key)
            new = v if cur is None else cur + v
            if is_zero(new):
                out.pop(key, None)
            else:
                out[key] = new
    return out


def _mat_mul(a: dict, b: dict) -> dict:
    by_row: dict[int, list] = {}
    for (r, s), v in b.items():
        by_row.setdefault(r, []).append((s, v))
    out: dict = {}
    for (r, s), v in a.items():
        for s2, v2 in by_row.get(s, ()):
            key = (r, s2)
            cur = out.get(key)
            new = v * v2 if cur is None else cur + v * v2
            if is_zero(new):
                out.pop(key, None)
            else:
                out[key] = new
    return out


def averaged_by_brute_force(e: EmbeddedDiagram, cfg: WeakConfig, boundary_label: int | None = None):
    """Sum of evaluations over all labellings, weighted by representation dimensions.

    Independent oracle for ``averaged_evaluation``: no admissibility shortcut
    is taken anywhere.
    """
    import itertools

    reps = cfg.simple_reps()
    greens = sorted(c.id for c in e.base.curves_of_color(GREEN))
    blues = sorted(c.id for c in e.base.curves_of_color(BLUE))
    reds = sorted(c.id for c in e.base.curves_of_color(RED))
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
