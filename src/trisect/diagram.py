"""Combinatorial trisection and surface diagrams.

A diagram is a set of coloured closed curves, each a cyclic list of crossing
ids (index 0 is the basepoint, list order the orientation), together with
signed crossings that point back at (curve, visit index) pairs.  Crossing
sequences are the whole carrier of the invariants; surface realizability is
not verified.  Optional embedding data (regions and per-segment sides) feed
the region-based labelling counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

from .contraction import connected
from .errors import DiagramParseError, TrisectError

RED, BLUE, GREEN = "red", "blue", "green"
COLORS = (RED, BLUE, GREEN)

# crossing strand order follows the colour pairs (A,B), (B,C), (C,A)
PAIR_FIRST = {frozenset((RED, BLUE)): RED, frozenset((BLUE, GREEN)): BLUE, frozenset((GREEN, RED)): GREEN}


@dataclass(frozen=True)
class Curve:
    id: str
    color: str
    visits: tuple[str, ...]


@dataclass(frozen=True)
class Crossing:
    id: str
    sign: int
    ends: tuple[tuple[str, int], tuple[str, int]]

    def __post_init__(self):
        # the two ends are an unordered pair; keep a sorted normal form
        ends = tuple(sorted((tuple(e) for e in self.ends)))
        object.__setattr__(self, "ends", ends)


@dataclass(frozen=True)
class TrisectionDiagram:
    genus: int
    kind: str  # "closed" | "disc"
    curves: tuple[Curve, ...]
    crossings: tuple[Crossing, ...]
    declared_k: int | None = None

    # the instance is frozen, so each index is built once, on first lookup;
    # with duplicate ids (an invalid diagram) the first one wins, as in a scan
    @cached_property
    def _curve_index(self) -> dict[str, Curve]:
        return {c.id: c for c in reversed(self.curves)}

    @cached_property
    def _crossing_index(self) -> dict[str, Crossing]:
        return {x.id: x for x in reversed(self.crossings)}

    def curve(self, cid: str) -> Curve:
        c = self._curve_index.get(cid)
        if c is None:
            raise TrisectError(f"no curve {cid!r}")
        return c

    def crossing(self, xid: str) -> Crossing:
        x = self._crossing_index.get(xid)
        if x is None:
            raise TrisectError(f"no crossing {xid!r}")
        return x

    def end_on(self, xid: str, cid: str) -> tuple[str, int]:
        """The (partner curve, partner index) of crossing xid seen from curve cid."""
        (c1, i1), (c2, i2) = self.crossing(xid).ends
        if c1 == cid:
            return c2, i2
        if c2 == cid:
            return c1, i1
        raise TrisectError(f"crossing {xid!r} does not touch curve {cid!r}")

    def curves_of_color(self, color: str) -> list[Curve]:
        return [c for c in self.curves if c.color == color]

    def components(self) -> list[list[str]]:
        """Connected components of the curves, two joined by a crossing both visit: sorted ids, in curve order."""
        return [sorted(self.curves[i].id for i in comp) for comp in connected([c.visits for c in self.curves])]


@dataclass(frozen=True)
class EmbeddedDiagram:
    base: TrisectionDiagram
    regions: tuple[str, ...]
    # segment_sides[curve_id][segment] = (left region, right region); segment i
    # runs from visit i to visit i+1 (one whole-loop segment if crossing-free)
    segment_sides: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)
    boundary_region: str | None = None

    def n_segments(self, cid: str) -> int:
        return max(1, len(self.base.curve(cid).visits))

    def sides(self, cid: str, seg: int) -> tuple[str, str]:
        return self.segment_sides[cid][seg % self.n_segments(cid)]


@dataclass
class Violation:
    code: str
    message: str
    where: str = ""


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str, where: str = "") -> None:
        self.violations.append(Violation(code, message, where))

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"[{v.code}] {v.message}" + (f" (at {v.where})" if v.where else "") for v in self.violations)


def euler_characteristic(g: int, k: int) -> int:
    """Euler characteristic of the 4-manifold with a (g,k)-trisection."""
    if g < 0 or k < 0 or k > g:
        raise TrisectError(f"need 0 <= k <= g, got (g,k)=({g},{k})")
    return 2 + g - 3 * k


def validate(d: TrisectionDiagram, strict: bool = False) -> ValidationReport:
    rep = ValidationReport()
    if d.kind not in ("closed", "disc"):
        rep.add("kind", f"unknown kind {d.kind!r}")
    if d.genus < 1:
        rep.add("genus", f"genus must be >= 1, got {d.genus}")
    curve_ids = [c.id for c in d.curves]
    if len(set(curve_ids)) != len(curve_ids):
        rep.add("duplicate-id", "duplicate curve id")
    xids = [x.id for x in d.crossings]
    if len(set(xids)) != len(xids):
        rep.add("duplicate-id", "duplicate crossing id")
    by_curve = {c.id: c for c in d.curves}
    by_x = {x.id: x for x in d.crossings}

    for c in d.curves:
        if c.color not in COLORS:
            rep.add("color", f"unknown colour {c.color!r}", c.id)
        for i, xid in enumerate(c.visits):
            x = by_x.get(xid)
            if x is None:
                rep.add("dangling-visit", f"curve visits unknown crossing {xid!r}", f"{c.id}[{i}]")
            elif (c.id, i) not in x.ends:
                rep.add("end-mismatch", f"crossing {xid!r} does not list end ({c.id},{i})", f"{c.id}[{i}]")

    for x in d.crossings:
        (c1, i1), (c2, i2) = x.ends
        if x.sign not in (1, -1):
            rep.add("sign", f"sign must be +1 or -1, got {x.sign}", x.id)
        if c1 == c2:
            rep.add("self-crossing", "curve appears twice at one crossing", x.id)
        for cid, i in x.ends:
            c = by_curve.get(cid)
            if c is None:
                rep.add("dangling-end", f"crossing references unknown curve {cid!r}", x.id)
            elif not (0 <= i < len(c.visits)):
                rep.add("dangling-end", f"end index {i} out of range on {cid!r}", x.id)
            elif c.visits[i] != x.id:
                rep.add("end-mismatch", f"curve {cid!r} visit {i} is not {x.id!r}", x.id)
        if c1 != c2 and c1 in by_curve and c2 in by_curve:
            if by_curve[c1].color == by_curve[c2].color:
                rep.add("same-colour-intersection", f"{c1!r} and {c2!r} share a colour", x.id)

    total = sum(len(c.visits) for c in d.curves)
    if total != 2 * len(d.crossings):
        rep.add("visit-count", f"sum of visit lengths {total} != 2 x {len(d.crossings)} crossings")

    if strict:
        for color in COLORS:
            n = len(d.curves_of_color(color))
            if n != d.genus:
                rep.add("curve-count", f"{n} {color} curves, expected genus {d.genus}")
        if d.declared_k is not None and not (0 <= d.declared_k <= d.genus):
            rep.add("k-range", f"declared k={d.declared_k} outside [0, {d.genus}]")
    return rep


def ends_in_pair_order(d: TrisectionDiagram, x: Crossing) -> tuple[tuple[Curve, int], tuple[Curve, int]]:
    """The (curve, visit index) of both ends of ``x``, the curve whose colour comes first in its pair first."""
    (c1, i1), (c2, i2) = x.ends
    a, b = d.curve(c1), d.curve(c2)
    if PAIR_FIRST[frozenset((a.color, b.color))] != a.color:
        return (b, i2), (a, i1)
    return (a, i1), (b, i2)


def _halfedges(e: EmbeddedDiagram, xid: str):
    """Incoming/outgoing (left,right) sides of both strands at a crossing.

    Strand 1 is the curve whose colour comes first in the cyclic pair order.
    """
    x = e.base.crossing(xid)
    (a, ia), (b, ib) = ends_in_pair_order(e.base, x)
    n1, n2 = e.n_segments(a.id), e.n_segments(b.id)
    s1_in, s1_out = e.sides(a.id, (ia - 1) % n1), e.sides(a.id, ia % n1)
    s2_in, s2_out = e.sides(b.id, (ib - 1) % n2), e.sides(b.id, ib % n2)
    return s1_in, s1_out, s2_in, s2_out, x.sign


def corner_conditions(e: EmbeddedDiagram, xid: str) -> list[tuple[str, str, str]]:
    """The four quadrant equalities at a crossing, as (name, lhs, rhs)."""
    s1_in, s1_out, s2_in, s2_out, sign = _halfedges(e, xid)
    L, R = 0, 1
    if sign == 1:
        return [
            ("q1", s1_out[L], s2_out[R]),
            ("q2", s1_in[L], s2_out[L]),
            ("q3", s1_in[R], s2_in[L]),
            ("q4", s1_out[R], s2_in[R]),
        ]
    return [
        ("q1", s1_out[L], s2_in[L]),
        ("q2", s1_in[L], s2_in[R]),
        ("q3", s1_in[R], s2_out[R]),
        ("q4", s1_out[R], s2_out[L]),
    ]


def validate_embedded(e: EmbeddedDiagram, strict: bool = False) -> ValidationReport:
    rep = validate(e.base, strict)
    base_ok = (validate(e.base) if strict else rep).ok
    region_set = set(e.regions)
    used: set[str] = set()
    for c in e.base.curves:
        sides = e.segment_sides.get(c.id)
        n = max(1, len(c.visits))
        if sides is None or len(sides) != n:
            rep.add("segments", f"curve {c.id!r} needs {n} segment side pairs")
            continue
        for seg, (l, r) in enumerate(sides):
            for reg in (l, r):
                if reg not in region_set:
                    rep.add("unknown-region", f"segment side names unknown region {reg!r}", f"{c.id}[{seg}]")
                used.add(reg)
    if e.boundary_region is not None:
        if e.boundary_region not in region_set:
            rep.add("unknown-region", f"boundary region {e.boundary_region!r} not declared")
        used.add(e.boundary_region)
    elif e.base.kind == "disc":
        rep.add("boundary", "disc diagram without a boundary region")
    for reg in e.regions:
        if reg not in used:
            rep.add("unused-region", f"region {reg!r} referenced by no segment side")
    # the corners read each crossing's colour pair and segments, so they need a valid base and sides
    if base_ok and all(v.code not in ("segments", "unknown-region") for v in rep.violations):
        for x in e.base.crossings:
            for name, lhs, rhs in corner_conditions(e, x.id):
                if lhs != rhs:
                    rep.add("corner", f"{name}: {lhs!r} != {rhs!r}", x.id)
    return rep


# ---------------------------------------------------------------------------
# catalog


def standard_s4() -> TrisectionDiagram:
    """Genus-3 diagram of the 4-sphere: three handles, six crossings."""
    curves = (
        Curve("F1", RED, ("x1",)),
        Curve("F2", RED, ("x3",)),
        Curve("F3", RED, ("x5", "x6")),
        Curve("b1", BLUE, ("x2",)),
        Curve("b2", BLUE, ("x3", "x4")),
        Curve("b3", BLUE, ("x5",)),
        Curve("c1", GREEN, ("x1", "x2")),
        Curve("c2", GREEN, ("x4",)),
        Curve("c3", GREEN, ("x6",)),
    )
    crossings = (
        Crossing("x1", -1, (("F1", 0), ("c1", 0))),
        Crossing("x2", +1, (("b1", 0), ("c1", 1))),
        Crossing("x3", +1, (("F2", 0), ("b2", 0))),
        Crossing("x4", -1, (("c2", 0), ("b2", 1))),
        Crossing("x5", -1, (("F3", 0), ("b3", 0))),
        Crossing("x6", +1, (("F3", 1), ("c3", 0))),
    )
    return TrisectionDiagram(3, "closed", curves, crossings, declared_k=1)


def standard_s4_embedded() -> EmbeddedDiagram:
    sides = {
        "F1": ((("R1", "R0")),),
        "b1": ((("R0", "R1")),),
        "c1": (("R1", "R1"), ("R0", "R0")),
        "F2": ((("R2", "R0")),),
        "c2": ((("R0", "R2")),),
        "b2": (("R2", "R2"), ("R0", "R0")),
        "F3": (("R3", "R3"), ("R0", "R0")),
        "b3": ((("R3", "R0")),),
        "c3": ((("R0", "R3")),),
    }
    return EmbeddedDiagram(standard_s4(), ("R0", "R1", "R2", "R3"), sides)


def cp2() -> TrisectionDiagram:
    """Genus-1 diagram of the complex projective plane: three curves on the torus."""
    curves = (
        Curve("a", RED, ("p_ab", "p_ca")),
        Curve("b", BLUE, ("p_ab", "p_bc")),
        Curve("g", GREEN, ("p_ca", "p_bc")),
    )
    crossings = (
        Crossing("p_ab", +1, (("a", 0), ("b", 0))),
        Crossing("p_bc", +1, (("b", 1), ("g", 1))),
        Crossing("p_ca", +1, (("g", 0), ("a", 1))),
    )
    return TrisectionDiagram(1, "closed", curves, crossings, declared_k=0)


def cp2_embedded() -> EmbeddedDiagram:
    sides = {
        "a": (("S", "U"), ("D", "S")),
        "b": (("D", "S"), ("S", "U")),
        "g": (("S", "U"), ("D", "S")),
    }
    return EmbeddedDiagram(cp2(), ("U", "S", "D"), sides)


def connected_sum(t1: TrisectionDiagram, t2: TrisectionDiagram) -> TrisectionDiagram:
    """Disjoint union of curves and crossings; discs removed away from all curves."""
    for t in (t1, t2):
        if t.kind != "closed":
            raise TrisectError("connected sum needs closed diagrams")
    taken = {c.id for c in t1.curves} | {x.id for x in t1.crossings}

    def fresh(name: str) -> str:
        if name not in taken:
            return name
        k = 2
        while f"{name}~{k}" in taken:
            k += 1
        return f"{name}~{k}"

    cmap = {c.id: fresh(c.id) for c in t2.curves}
    taken |= set(cmap.values())
    xmap = {x.id: fresh(x.id) for x in t2.crossings}
    curves = t1.curves + tuple(
        Curve(cmap[c.id], c.color, tuple(xmap[v] for v in c.visits)) for c in t2.curves
    )
    crossings = t1.crossings + tuple(
        Crossing(xmap[x.id], x.sign, tuple((cmap[c], i) for c, i in x.ends)) for x in t2.crossings
    )
    k = None
    if t1.declared_k is not None and t2.declared_k is not None:
        k = t1.declared_k + t2.declared_k
    return TrisectionDiagram(t1.genus + t2.genus, "closed", curves, crossings, k)


def remove_disc(t: TrisectionDiagram) -> TrisectionDiagram:
    if t.kind != "closed":
        raise TrisectError("can only remove a disc from a closed diagram")
    return replace(t, kind="disc")


def standard_s4_disc() -> EmbeddedDiagram:
    """The standard S^4 diagram with a disc removed from the outer region."""
    e = standard_s4_embedded()
    return EmbeddedDiagram(remove_disc(e.base), e.regions, e.segment_sides, boundary_region="R0")


# every entry embedded; its abstract diagram is its ``base``
CATALOG = {
    "s4": standard_s4_embedded,
    "cp2": cp2_embedded,
    "s4-disc": standard_s4_disc,
}


# ---------------------------------------------------------------------------
# serialization

_TOP_KEYS = {"genus", "kind", "k", "curves", "crossings", "regions", "segment_sides", "boundary_region"}


def serialize(d: TrisectionDiagram | EmbeddedDiagram) -> str:
    e = d if isinstance(d, EmbeddedDiagram) else None
    base = e.base if e else d
    out: dict = {
        "genus": base.genus,
        "kind": base.kind,
        "curves": [{"id": c.id, "color": c.color, "visits": list(c.visits)} for c in base.curves],
        "crossings": [
            {"id": x.id, "sign": x.sign, "ends": [list(x.ends[0]), list(x.ends[1])]} for x in base.crossings
        ],
    }
    if base.declared_k is not None:
        out["k"] = base.declared_k
    if e is not None:
        out["regions"] = list(e.regions)
        out["segment_sides"] = {cid: [list(p) for p in sides] for cid, sides in e.segment_sides.items()}
        if e.boundary_region is not None:
            out["boundary_region"] = e.boundary_region
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def parse(text: str, strict: bool = False) -> TrisectionDiagram | EmbeddedDiagram:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramParseError(f"not valid JSON: {exc.msg}", where=f"line {exc.lineno}") from exc
    return from_json(data, strict)


def _listed(value, key: str) -> list:
    """``value``, which must be a list: a string would iterate as its characters, visits "xz" as x and z."""
    if not isinstance(value, list):
        raise TypeError(f"{key!r} must be a list, not {type(value).__name__}")
    return value


def from_json(data, strict: bool = False) -> TrisectionDiagram | EmbeddedDiagram:
    """The diagram a decoded JSON object describes, as ``serialize`` writes it."""
    if not isinstance(data, dict):
        raise DiagramParseError("top level must be an object")
    if strict:
        extra = set(data) - _TOP_KEYS
        if extra:
            raise DiagramParseError(f"unknown keys {sorted(extra)}")

    def need(key: str, typ) -> object:
        if key not in data:
            raise DiagramParseError(f"missing key {key!r}")
        # a JSON true or false is a bool, which Python counts as an int
        if not isinstance(data[key], typ) or isinstance(data[key], bool):
            raise DiagramParseError(f"key {key!r} has wrong type", where=key)
        return data[key]

    genus = need("genus", int)
    kind = need("kind", str)
    curves = []
    for i, c in enumerate(need("curves", list)):
        try:
            curves.append(Curve(str(c["id"]), str(c["color"]), tuple(str(v) for v in _listed(c["visits"], "visits"))))
        except (KeyError, TypeError) as exc:
            raise DiagramParseError(f"bad curve entry: {exc}", where=f"curves[{i}]") from exc
    crossings = []
    for i, x in enumerate(need("crossings", list)):
        try:
            (c1, i1), (c2, i2) = x["ends"]
            crossing = Crossing(str(x["id"]), x["sign"], ((str(c1), i1), (str(c2), i2)))
        except (KeyError, TypeError, ValueError) as exc:
            raise DiagramParseError(f"bad crossing entry: {exc}", where=f"crossings[{i}]") from exc
        if not all(type(v) is int for v in (crossing.sign, i1, i2)):
            raise DiagramParseError("a crossing's sign and end indices must be integers", where=f"crossings[{i}]")
        crossings.append(crossing)
    k = data.get("k")
    if k is not None and type(k) is not int:
        raise DiagramParseError("key 'k' must be an integer", where="k")
    base = TrisectionDiagram(genus, kind, tuple(curves), tuple(crossings), k)
    if "regions" not in data and "segment_sides" not in data:
        return base
    regions = tuple(str(r) for r in need("regions", list))
    try:
        sides = {}
        for cid, pairs in need("segment_sides", dict).items():
            pairs = [_listed(pair, "segment_sides") for pair in _listed(pairs, "segment_sides")]
            sides[str(cid)] = tuple((str(l), str(r)) for l, r in pairs)
    except (TypeError, ValueError) as exc:
        raise DiagramParseError(f"bad embedding data: {exc}", where="segment_sides") from exc
    boundary = data.get("boundary_region")
    if boundary is not None and not isinstance(boundary, str):
        raise DiagramParseError("key 'boundary_region' must be a string", where="boundary_region")
    return EmbeddedDiagram(base, regions, sides, boundary)
