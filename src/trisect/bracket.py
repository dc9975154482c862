"""Diagram evaluation against a Hopf triplet, two independent ways.

Both backends contract one tensor network: a node per crossing, holding the
pairing matrix (its convolution inverse at a negative crossing), and the
nodes of each curve.  The element backend expands each curve's integral by
iterated coproducts.  The representation backend traces each curve's ordered
crossing operators in the sum of the irreducibles of the dual algebra, block
rho weighted by dim(rho); the network is linear in each curve's nodes, so
this is the sum over all labellings of curves by irreducibles.  With the
default integrals (counit dim on each algebra) the two agree exactly;
rescaling an integral by z scales either bracket by z^genus.

Nothing in the structure tensors depends on the diagram.  A ``BracketConfig``
builds them on first use and keeps them: the curve-node builder with its
resolved integrals and coproduct tensors (or the representation modules),
the six crossing tensors, which every crossing node shares, and the standard
S^4 bracket that ``invariant`` divides by.  Their level-1 integers are stored
as ``int`` (``contraction.int_entries``), and the config's ``joins`` keeps
each join of two of them for later brackets; the memo goes with the config.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

from .contraction import DEFAULT_CAP, Node, contract_network, int_entries
from .diagram import BLUE, GREEN, RED, TrisectionDiagram, connected_sum, ends_in_pair_order, standard_s4, validate
from .errors import MissingIrreps, StabilizationObstruction, TrisectError
from .hopf import HopfTriplet, compute_integral, convolution_inverse
from .scalars import Cyc, approx_eq, render, to_complex

ONE = Cyc.rational(1)

COLOR_SLOT = {RED: "A", BLUE: "B", GREEN: "C"}


@dataclass(frozen=True)
class BracketConfig:
    """What to evaluate diagrams against, and what is prepared once for it.

    Nothing in the curve-node builder, the crossing tensors or the standard
    S^4 bracket depends on the diagram, so each is built on first use and
    kept on the config, as are their joins; reuse one config for many
    diagrams.  Frozen: ``dataclasses.replace`` makes a new one, with its own cache.
    """

    triplet: HopfTriplet
    evaluator: str = "element"  # "element" | "rep"
    contraction_cap: int = DEFAULT_CAP
    integral_scale: dict[str, object] = field(default_factory=dict)

    def resolved_integrals(self) -> dict[str, dict]:
        ints = self.triplet.default_integrals
        if ints is None:
            ints = {slot: compute_integral(self.triplet.algebra(slot)) for slot in "ABC"}
        out = {}
        for slot in "ABC":
            vec = ints[slot]
            z = self.integral_scale.get(slot)
            out[slot] = {k: z * v for k, v in vec.items()} if z is not None else dict(vec)
        return out

    @cached_property
    def curve_nodes(self):
        """The evaluator's builder of each curve's nodes; see ``trisection_bracket``."""
        if self.evaluator not in _CURVE_NODES:
            raise TrisectError(f"unknown evaluator {self.evaluator!r}")
        return _CURVE_NODES[self.evaluator](self)

    @cached_property
    def crossing_tensors(self) -> dict[tuple[str, str, int], dict]:
        """The pairing matrix of each slot pair by sign, its convolution inverse at -1."""
        t = self.triplet
        mats = {}
        for slots in (("A", "B"), ("B", "C"), ("C", "A")):
            tau = t.pairing(slots)
            mats[(slots[0], slots[1], 1)] = int_entries(tau)
            mats[(slots[0], slots[1], -1)] = int_entries(convolution_inverse(tau, t.algebra(slots[0])))
        return mats

    @cached_property
    def joins(self) -> dict:
        """The memo of ``contraction.execute_plan``: the joins of the config's tensors, kept for every bracket."""
        return {}

    @cached_property
    def s4_bracket(self):
        """The bracket of the standard S^4 diagram, which ``invariant`` divides by."""
        return trisection_bracket(standard_s4(), self)


def _crossing_slot_wires(d: TrisectionDiagram, x) -> tuple[tuple[str, str], tuple[str, str]]:
    """((slotX, wireX), (slotY, wireY)) with slot order following the colour pairs."""
    (c1, i1), (c2, i2) = ends_in_pair_order(d, x)
    return (
        (COLOR_SLOT[c1.color], f"s:{c1.id}:{i1}"),
        (COLOR_SLOT[c2.color], f"s:{c2.id}:{i2}"),
    )


def trisection_bracket(d: TrisectionDiagram, cfg: BracketConfig):
    rep = validate(d)
    if not rep.ok:
        raise TrisectError(f"invalid diagram: {rep}")
    # curve_nodes(curve, nodes, dims) appends the curve's nodes, which end on
    # its slot wires s:<curve>:<visit>, with the dimensions of the wires it
    # adds, and returns the scalar factor the curve contributes besides them
    curve_nodes = cfg.curve_nodes
    mats = cfg.crossing_tensors
    nodes: list[Node] = []
    dims: dict[str, int] = {}
    total = ONE
    for curve in d.curves:
        alg_dim = cfg.triplet.algebra(COLOR_SLOT[curve.color]).dim
        dims.update((f"s:{curve.id}:{i}", alg_dim) for i in range(len(curve.visits)))
        total = total * curve_nodes(curve, nodes, dims)
    for x in d.crossings:
        (sl1, w1), (sl2, w2) = _crossing_slot_wires(d, x)
        nodes.append(Node(f"x:{x.id}", (w1, w2), mats[(sl1, sl2, x.sign)]))
    if not nodes:
        return total
    return total * contract_network(nodes, dims, cfg.contraction_cap, joins=cfg.joins)


def _element_curves(cfg: BracketConfig):
    """Each curve's integral, expanded onto its visits by a chain of coproduct nodes."""
    t = cfg.triplet
    integrals = cfg.resolved_integrals()
    slots = {}
    for slot in "ABC":
        alg, ell = t.algebra(slot), integrals[slot]
        slots[slot] = (alg.dim, alg.counit_of(ell), int_entries({(i,): c for i, c in ell.items()}), int_entries(alg.comult))

    def curve_nodes(curve, nodes, dims):
        dim, counit, ell, delta = slots[COLOR_SLOT[curve.color]]
        n = len(curve.visits)
        if n == 0:
            return counit
        # wire k of the chain feeds slot k and passes the remainder on; the
        # last remainder is slot n-1, and a one-visit integral sits on slot 0
        prev = f"s:{curve.id}:0" if n == 1 else f"t:{curve.id}:in"
        dims[prev] = dim
        nodes.append(Node(f"l:{curve.id}", (prev,), ell))
        for k in range(n - 1):
            out = f"s:{curve.id}:{n - 1}" if k == n - 2 else f"t:{curve.id}:{k}"
            dims[out] = dim
            nodes.append(Node(f"d:{curve.id}:{k}", (prev, f"s:{curve.id}:{k}", out), delta))
            prev = out
        return ONE

    return curve_nodes


def _rep_curves(cfg: BracketConfig):
    """Each curve's trace of its ordered visits in the sum of the dual irreducibles.

    Basis element x acts block-diagonally on the direct sum of the
    irreducibles rho of the dual algebra.  A curve with n visits is a ring of
    n operator nodes closed by a diagonal node that weights block rho by
    dim(rho): sum_rho dim(rho) tr(rho(x_0) ... rho(x_{n-1})).  A curve with no
    visits reads sum_rho dim(rho)^2.  Every curve carries its slot's integral
    scale.
    """
    t = cfg.triplet
    if t.weak:
        raise TrisectError("the representation backend supports strong triplets only")
    modules = {}
    for slot in "ABC":
        irreps = t.algebra(slot).dual_irreps
        if irreps is None:
            raise MissingIrreps(f"no representations known for the dual of {t.algebra(slot).name}")
        ops, weight, size = {}, {}, 0
        for r in irreps:
            ops.update({(x, size + a, size + b): c for x, m in enumerate(r.mats) for (a, b), c in m.items()})
            weight.update({(a, a): Cyc.rational(r.dim) for a in range(size, size + r.dim)})
            size += r.dim
        modules[slot] = (int_entries(ops), int_entries(weight), size, sum(r.dim * r.dim for r in irreps))
    # the builder is kept on the config, so it holds no reference back to it
    scale = cfg.integral_scale

    def curve_nodes(curve, nodes, dims):
        slot = COLOR_SLOT[curve.color]
        ops, weight, size, dim_squares = modules[slot]
        z, n = scale.get(slot, ONE), len(curve.visits)
        if n == 0:
            return z * dim_squares
        ring = [f"r:{curve.id}:{k}" for k in range(n + 1)]
        dims.update((w, size) for w in ring)
        for k in range(n):
            nodes.append(Node(f"o:{curve.id}:{k}", (f"s:{curve.id}:{k}", ring[k], ring[k + 1]), ops))
        nodes.append(Node(f"w:{curve.id}", (ring[n], ring[0]), weight))
        return z

    return curve_nodes


_CURVE_NODES = {"element": _element_curves, "rep": _rep_curves}


# ---------------------------------------------------------------------------
# the normalized invariant


@dataclass
class InvariantValue:
    """coeff * base^(-genus/3), with the principal cube root of base.

    Stored exactly.  Two invariants are compared by ``approx_eq``: of their
    coefficients when the bases agree and the genera agree mod 3 (which every
    move guarantees), otherwise of their cubes and then, for the branch of the
    cube root, of their decimal approximations.  A plain ``int``,
    ``Fraction``, ``Cyc`` or ``complex`` is the genus-0 invariant over the
    same base; any other type, a ``float`` included, is never equal.
    """

    coeff: object
    base: object
    genus: int

    def __post_init__(self) -> None:
        if not isinstance(self.coeff, (Cyc, complex)):
            self.coeff = Cyc.rational(self.coeff)
        if not isinstance(self.base, (Cyc, complex)):
            self.base = Cyc.rational(self.base)

    def cubed(self):
        return self.coeff**3 / self.base**self.genus

    def approx(self) -> complex:
        return to_complex(self.coeff) * self._xi_approx() ** (-self.genus)

    def _xi_approx(self) -> complex:
        b = to_complex(self.base)
        r, phi = cmath.polar(b)
        return cmath.rect(r ** (1 / 3), phi / 3)

    def all_roots(self) -> list[complex]:
        xi = self._xi_approx()
        return [
            to_complex(self.coeff) * (xi * cmath.exp(2j * cmath.pi * k / 3)) ** (-self.genus)
            for k in range(3)
        ]

    def scaled(self, s) -> "InvariantValue":
        return InvariantValue(s * self.coeff, self.base, self.genus)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Cyc, complex)):
            other = InvariantValue(other, self.base, 0)
        elif not isinstance(other, InvariantValue):
            return NotImplemented
        if approx_eq(self.base, other.base) and (self.genus - other.genus) % 3 == 0:
            t = (self.genus - other.genus) // 3
            return approx_eq(self.coeff, other.coeff * self.base**t)
        return approx_eq(self.cubed(), other.cubed()) and approx_eq(self.approx(), other.approx())

    def __str__(self) -> str:
        return f"{self.coeff} * <S4-bracket>^(-{self.genus}/3) (~ {render(self.approx())})"


def invariant(d: TrisectionDiagram, cfg: BracketConfig) -> InvariantValue:
    """The bracket normalized by the cube root of the standard S^4 bracket.

    A weak triplet is refused: its bracket changes under moves by factors of
    |M| (ROADMAP item 2), so its normalized bracket is no invariant.
    """
    if cfg.triplet.weak:
        raise TrisectError(
            f"{cfg.triplet.name}: a weak triplet with |M| > 1 has no invariant yet, "
            "its bracket changes under moves (ROADMAP item 2)"
        )
    stab = cfg.s4_bracket
    if not stab:
        raise StabilizationObstruction(
            f"the standard S^4 bracket vanishes for {cfg.triplet.name}; no invariant"
        )
    br = trisection_bracket(d, cfg)
    return InvariantValue(br, stab, d.genus)


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckReport:
    name: str
    ok: bool
    details: dict

    @classmethod
    def agreement(cls, name: str, values: dict) -> "CheckReport":
        """Pass when every value ``approx_eq``s the first; each value is shown by ``_shown``."""
        first, *rest = values.values()
        ok = all(approx_eq(first, v) for v in rest)
        return cls(name, ok, {k: _shown(v) for k, v in values.items()})

    def __str__(self) -> str:
        flag = "PASS" if self.ok else "FAIL"
        items = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{flag} {self.name}: {items}"


def _shown(x) -> str:
    """An exact value's ``str``; a complex one, or an invariant's approximation, as ``render`` writes it."""
    if isinstance(x, InvariantValue):
        return render(x.approx())
    return render(x) if isinstance(x, complex) else str(x)


def bracket_multiplicativity_check(t1: TrisectionDiagram, t2: TrisectionDiagram, cfg: BracketConfig) -> CheckReport:
    b1 = trisection_bracket(t1, cfg)
    b2 = trisection_bracket(t2, cfg)
    bs = trisection_bracket(connected_sum(t1, t2), cfg)
    return CheckReport.agreement("connected-sum multiplicativity", {"sum": bs, "product": b1 * b2})


def cross_check(d: TrisectionDiagram, cfg: BracketConfig) -> CheckReport:
    """Element vs representation backend under the same normalization."""
    be = trisection_bracket(d, replace(cfg, evaluator="element"))
    br = trisection_bracket(d, replace(cfg, evaluator="rep"))
    rep = CheckReport.agreement("backend agreement", {"element": be, "rep": br})
    if not rep.ok and br:
        rep.details["ratio"] = _shown(be / br)
        rep.details["note"] = f"a per-integral rescaling by z changes the bracket by z^{d.genus}"
    return rep
