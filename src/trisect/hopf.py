"""Finite-dimensional (weak) Hopf algebras as sparse structure tensors.

Each structure map is stored once, as the sparse tensor the networks
contract: ``mult[(i, j, k)]`` is the coefficient of e_k in e_i e_j,
``comult[(i, j, k)]`` that of e_j (x) e_k in the coproduct of e_i, and
``antipode[(i, j)]`` that of e_j in S(e_i); ``unit`` and ``counit`` are sparse
vectors.  Absent keys are zero.  Scalars are exact cyclotomics (or complex for
the float backend).

Group data has one construction: the crossed product C^{MxM} x| C[K] of a
K-set M and its dual, on the triples (m, n, k) at ``crossed_index``.  On a
point they are C[G] and C^G, and the group triplet is the weak triplet of the
point, the paper's case of the bimodule category Vec.  The weak triplet reads
its C x B^op-set, and the place of C and B in K, from ``groups.WeakConfig``.
``weak_simple_reps`` is the one builder of irreducibles of group data: those
of a crossed product, and on a point those of C[G], the dual of C^G.

The checkers state each identity once, as a pair of small networks over the
structure tensors.  The open wires of a side are the identity's free indices.
Each side is contracted once, as a whole (``contraction.plan_network`` and
``contraction.execute_plan``), and the two results, both keyed in the order
of the open wires, are compared key by key.
The residual reported for an identity is the largest |lhs - rhs| over the
indices whose two sides are not ``scalars.approx_eq``: every index where exact
sides differ, and on the float backend only those outside its relative rule.
Memory grows with the nonzero entries of an identity's sides; the engine's
one cap bounds the entries that each step of a side keeps.
The generalized double is built the same way: each of its five structure maps
is one network over the tensors of its two factors and the pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .contraction import Node, Tensor, accumulate, contract_network, execute_plan, plan_network
from .errors import MissingIrreps, NonSemisimple, TrisectError
from .groups import GSet, Group, WeakConfig, cyclic, opposite, point_gset
from .scalars import Cyc, approx_eq, to_complex

Vec = dict[int, object]          # sparse vector: basis index -> scalar
Mat = dict[tuple[int, int], object]
Tensor3 = dict[tuple[int, int, int], object]


ONE = Cyc.rational(1)


@dataclass
class Rep:
    """A matrix representation: mats[i] is the (sparse) matrix of basis element i."""

    name: str
    dim: int
    mats: list[Mat]


@dataclass
class HopfAlgebra:
    name: str
    basis: tuple[str, ...]
    mult: Tensor3
    unit: Vec
    comult: Tensor3
    counit: Vec
    antipode: Mat
    weak: bool = False
    # representations of the *dual* algebra, indexed by this algebra's basis
    # (entry i is the image of the dual basis element of e_i); used by the
    # representation-theoretic bracket backend
    dual_irreps: list[Rep] | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    # -- elementwise structure maps -------------------------------------
    def product(self, v: Vec, w: Vec) -> Vec:
        out: Vec = {}
        for (i, j, k), c in self.mult.items():
            if i in v and j in w:
                accumulate(out, k, v[i] * w[j] * c)
        return out

    def coproduct(self, v: Vec) -> Mat:
        out: Mat = {}
        for (i, j, k), c in self.comult.items():
            if i in v:
                accumulate(out, (j, k), v[i] * c)
        return out

    def counit_of(self, v: Vec):
        out = None
        for i, a in v.items():
            c = self.counit.get(i)
            if c is not None:
                term = a * c
                out = term if out is None else out + term
        return ONE * 0 if out is None else out

    def antipode_involutive(self) -> bool:
        """S^2 = id: the ``antipode_involutive`` residual of ``check_hopf_axioms`` is 0.0."""
        return _residual(_tensors(self), *_INVOLUTIVE) == 0.0

    def __str__(self) -> str:
        return f"{self.name} (dim {self.dim}{', weak' if self.weak else ''})"


# ---------------------------------------------------------------------------
# identities as pairs of networks
#
# A network is written as comma-separated terms "T w1 w2 ...": structure tensor
# T with its axes on the named wires.  A wire on two terms is summed over; the
# open wires are listed separately, in a fixed order shared by both sides.  The
# tensors of one algebra, from ``_tensors``, with their axes in order:
#   M a b o   product, e_a e_b = sum_o M[a, b, o] e_o
#   D a x y   coproduct, Delta(e_a) = sum D[a, x, y] e_x (x) e_y
#   e a       counit          u o    unit
#   S a o     antipode        I a o  identity
# A pairing check adds T (the pairing) and suffixes 1 and 2 for its two
# algebras; the triplet check suffixes A, B and C and adds the pairings TAB,
# TBC and TCA; an integral check adds L (the integral).

Tensors = dict[str, tuple[dict, tuple[int, ...]]]


def _tensors(h: HopfAlgebra, suffix: str = "") -> Tensors:
    n = h.dim
    return {
        "M" + suffix: (h.mult, (n, n, n)),
        "D" + suffix: (h.comult, (n, n, n)),
        "e" + suffix: ({(i,): c for i, c in h.counit.items()}, (n,)),
        "u" + suffix: ({(i,): c for i, c in h.unit.items()}, (n,)),
        "S" + suffix: (h.antipode, (n, n)),
        "I" + suffix: ({(i, i): ONE for i in range(n)}, (n, n)),
    }


def _network(tensors: Tensors, spec: str) -> tuple[list[Node], dict[str, int]]:
    nodes: list[Node] = []
    dims: dict[str, int] = {}
    for pos, term in enumerate(t for t in spec.split(",") if t.strip()):
        name, *wires = term.split()
        data, shape = tensors[name]
        if len(wires) != len(shape):
            raise ValueError(f"{name} has {len(shape)} axes, got wires {wires}")
        for w, d in zip(wires, shape):
            if dims.setdefault(w, d) != d:
                raise ValueError(f"wire {w} joins axes of dimensions {dims[w]} and {d}")
        nodes.append(Node(f"{name}{pos}", tuple(wires), data))
    return nodes, dims


def _pairs(tensors: Tensors, out: str, lhs: str, rhs: str):
    """(lhs, rhs) at every index of the open wires ``out`` where either side is nonzero.

    Each side is contracted once, as a whole, and kept as ``execute_plan``
    leaves it, with a ``Tensor``'s integer entries still ``int``, under the
    engine's one cap on the entries of each step.
    """
    wires = out.split()
    sides = []
    for spec in (lhs, rhs):
        nodes, dims = _network(tensors, spec)
        sides.append(execute_plan(plan_network(nodes, dims, open_wires=wires), [n.data for n in nodes]))
    a, b = sides
    for key, x in a.items():
        yield x, b.get(key, 0)
    for key, y in b.items():
        if key not in a:
            yield 0, y


def _residual(tensors: Tensors, out: str, lhs: str, rhs: str) -> float:
    """max |lhs - rhs| over the indices of the open wires ``out`` whose sides are not ``approx_eq``.

    Exact ``!=`` is tested first, so equal sides cost one comparison.  An
    exact difference too small for a float reads as the least positive float.
    """
    diffs = (abs(to_complex(x - y)) or math.ulp(0.0) for x, y in _pairs(tensors, out, lhs, rhs)
             if x != y and not approx_eq(x, y))
    return max(diffs, default=0.0)


def _residuals(tensors: Tensors, identities) -> dict[str, float]:
    """Residual by key; a key's residual is the largest over its network pairs.

    Every network reads the tensors as a ``Tensor``, built here once for all
    of them, so a step looks up only the keys that can match and multiplies
    level-1 integer entries as ``int``.
    """
    tensors = {name: (Tensor(data), shape) for name, (data, shape) in tensors.items()}
    return {key: max(_residual(tensors, *pair) for pair in pairs) for key, pairs in identities}


# m(S x id)Delta and m(id x S)Delta
_S_ID = "D i a b, S a x, M x b o"
_ID_S = "D i a b, S b y, M a y o"
# S^2 = id
_INVOLUTIVE = ("i o", "S i t, S t o", "I i o")

# (residual key, [(open wires, lhs, rhs), ...])
_AXIOMS = [
    ("associativity", [("i j k o", "M i j t, M t k o", "M j k t, M i t o")]),
    ("unitality", [("i o", "u x, M x i o", "I i o"), ("i o", "u x, M i x o", "I i o")]),
    ("coassociativity", [("i p q r", "D i t r, D t p q", "D i p t, D t q r")]),
    ("counitality", [("i o", "D i o b, e b", "I i o"), ("i o", "D i a o, e a", "I i o")]),
    ("comultiplicativity", [("i j x y", "M i j t, D t x y", "D i a b, D j c d, M a c x, M b d y")]),
]
_STRONG_AXIOMS = [
    ("unit_counit_compat", [
        ("i j", "M i j t, e t", "e i, e j"),
        ("x y", "u t, D t x y", "u x, u y"),
        ("", "u t, e t", ""),
    ]),
    ("antipode", [("i o", _S_ID, "e i, u o"), ("i o", _ID_S, "e i, u o")]),
    ("antipode_involutive", [_INVOLUTIVE]),
]
_WEAK_AXIOMS = [
    # (Delta x id)Delta(1) = (Delta(1) x 1)(1 x Delta(1)) = (1 x Delta(1))(Delta(1) x 1)
    ("weak_unit_coproduct", [
        ("p q r", "u t, D t s r, D s p q", "u t, D t p b, u s, D s x r, M b x q"),
        ("p q r", "u t, D t s r, D s p q", "u t, D t a r, u s, D s p y, M a y q"),
    ]),
    # eps(ghk) = eps(g h1) eps(h2 k) = eps(g h2) eps(h1 k)
    ("weak_counit_product", [
        ("g i k", "M g i m, M m k t, e t", "D i a b, M g a x, e x, M b k y, e y"),
        ("g i k", "M g i m, M m k t, e t", "D i a b, M g b x, e x, M a k y, e y"),
    ]),
    # h1 S(h2) = eps_t(h) = eps(1_(1) h) 1_(2), S(h1) h2 = eps_s(h) = eps(h 1_(2)) 1_(1),
    # S(h1) h2 S(h3) = S(h)
    ("weak_antipode", [
        ("i o", _ID_S, "u t, D t p o, M p i k, e k"),
        ("i o", _S_ID, "u t, D t o q, M i q k, e k"),
        ("i o", "D i a r, D r b c, S a x, M x b m, S c y, M m y o", "S i o"),
    ]),
]


def check_hopf_axioms(h: HopfAlgebra) -> dict[str, float]:
    """Residuals of the Hopf axioms, or of the weak Hopf axioms when ``h.weak``."""
    return _residuals(_tensors(h), _AXIOMS + (_WEAK_AXIOMS if h.weak else _STRONG_AXIOMS))


# ---------------------------------------------------------------------------
# constructors


def group_algebra(g: Group) -> HopfAlgebra:
    """C[G], the crossed product of G acting on a point."""
    return _on_point(weak_hopf_from_action(point_gset(g))[0], g, f"C[{g.name}]", functions=False)


def function_algebra(g: Group) -> HopfAlgebra:
    """C^G, the dual of the crossed product of G acting on a point."""
    return _on_point(_crossed_dual(point_gset(g)), g, f"C^{g.name}", functions=True)


def _on_point(h: HopfAlgebra, g: Group, name: str, functions: bool) -> HopfAlgebra:
    """``h``, C^G if ``functions`` else C[G] on a point, under ``name``, G's basis and its dual's irreducibles.

    Those of C^G, commutative for every G, are the evaluations at group
    elements; those of C[G] are ``weak_simple_reps``'s, when G is abelian.
    """
    if functions:
        basis = tuple(f"d{lab}" for lab in g.labels)
        irreps = weak_simple_reps(point_gset(g)) if g.is_abelian() else None
    else:
        basis = g.labels
        irreps = [Rep(f"ev_{lab}", 1, [({(0, 0): ONE} if i == x else {}) for i in range(g.order)])
                  for x, lab in enumerate(g.labels)]
    return replace(h, name=name, basis=basis, dual_irreps=irreps)


def dual(h: HopfAlgebra) -> HopfAlgebra:
    mult = {(j, k, i): c for (i, j, k), c in h.comult.items()}
    comult = {(k, i, j): c for (i, j, k), c in h.mult.items()}
    antipode = {(j, i): c for (i, j), c in h.antipode.items()}
    basis = tuple(f"{b}*" for b in h.basis)
    return HopfAlgebra(f"{h.name}*", basis, mult, dict(h.counit), comult, dict(h.unit), antipode, h.weak, None)


def _inverse_antipode(h: HopfAlgebra) -> Mat:
    if h.antipode_involutive():
        return dict(h.antipode)
    raise NonSemisimple(f"{h.name}: antipode is not involutive; opposite structures unsupported")


def op(h: HopfAlgebra) -> HopfAlgebra:
    mult = {(j, i, k): c for (i, j, k), c in h.mult.items()}
    return HopfAlgebra(
        f"{h.name}^op", h.basis, mult, dict(h.unit), dict(h.comult), dict(h.counit),
        _inverse_antipode(h), h.weak, h.dual_irreps,
    )


def cop(h: HopfAlgebra) -> HopfAlgebra:
    comult = {(i, k, j): c for (i, j, k), c in h.comult.items()}
    return HopfAlgebra(
        f"{h.name}^cop", h.basis, dict(h.mult), dict(h.unit), comult, dict(h.counit),
        _inverse_antipode(h), h.weak, h.dual_irreps,
    )


# ---------------------------------------------------------------------------
# pairings, doubles, triplets


def trivial_pairing(a: HopfAlgebra, b: HopfAlgebra) -> Mat:
    out: Mat = {}
    for i, ca in a.counit.items():
        for j, cb in b.counit.items():
            out[(i, j)] = ca * cb
    return out


def canonical_pairing(a_dual_cop: HopfAlgebra, a: HopfAlgebra) -> Mat:
    """Evaluation pairing, assuming the first algebra uses the dual basis order."""
    if a_dual_cop.dim != a.dim:
        raise TrisectError("canonical pairing needs matching dimensions")
    return {(i, i): ONE for i in range(a.dim)}


def convolution_inverse(tau: Mat, a: HopfAlgebra) -> Mat:
    """tau^{-1}(x, y) = tau(S(x), y)."""
    by_row: dict[int, list[tuple[int, object]]] = {}
    for (k, j), c in tau.items():
        by_row.setdefault(k, []).append((j, c))
    out: Mat = {}
    for (i, k), cs in a.antipode.items():
        for j, c in by_row.get(k, ()):
            accumulate(out, (i, j), cs * c)
    return out


# tau(xy, k) = tau(x, k1) tau(y, k2), tau(i, jk) = tau(i2, j) tau(i1, k),
# tau(i, 1) = eps(i), tau(1, j) = eps(j)
_PAIRING = [
    ("mult_left", [("i j k", "M1 i j l, T l k", "D2 k p q, T i p, T j q")]),
    ("mult_right", [("i j k", "M2 j k l, T i l", "D1 i p q, T q j, T p k")]),
    ("counit_left", [("i", "u2 j, T i j", "e1 i")]),
    ("counit_right", [("j", "u1 i, T i j", "e2 j")]),
]
# tau * tau^-1 = tau^-1 * tau = eps (x) eps, with tau^-1(x, y) = tau(S(x), y)
_CONVOLUTION = [
    ("convolution_inverse", [
        ("i j", "D1 i p q, D2 j r s, T p r, S1 q k, T k s", "e1 i, e2 j"),
        ("i j", "D1 i p q, D2 j r s, S1 p k, T k r, T q s", "e1 i, e2 j"),
    ]),
]


def check_skew_pairing(tau: Mat, a: HopfAlgebra, b: HopfAlgebra) -> dict[str, float]:
    """The four defining identities plus (for strong pairs) the convolution identity.

    The strong convolution identity fails for genuinely weak pairings, where
    inverses are relative to the source and target counits, so it is skipped
    when either algebra is weak.
    """
    tensors = {**_tensors(a, "1"), **_tensors(b, "2"), "T": (tau, (a.dim, b.dim))}
    return _residuals(tensors, _PAIRING + ([] if a.weak or b.weak else _CONVOLUTION))


# The double of A and B twisted by tau has basis e_i x f_j, at index i * dim B + j.
# (e_i x f_j)(e_k x f_l) = tau(k1, j1) e_i k2 x j2 f_l tau^-1(k3, j3), tau^-1(x, y) = tau(S(x), y);
# S(e_p x f_q) = (1 x S(f_q))(S(e_p) x 1), the product with i and l the units, which
# drop out of it.  Open wires come in (A, B) pairs.
_TWIST = "DA k a1 t, DA t a2 a3, DB j b1 s, DB s b2 b3, T a1 b1, SA a3 c, T c b3"
_DOUBLE = {
    "mult": ("i j k l x y", _TWIST + ", MA i a2 x, MB b2 l y"),
    "antipode": ("p q a2 b2", "SA p k, SB q j, " + _TWIST),
    "comult": ("i j p r q s", "DA i p q, DB j r s"),
    "unit": ("i j", "uA i, uB j"),
    "counit": ("i j", "eA i, eB j"),
}


def generalized_double(a: HopfAlgebra, b: HopfAlgebra, tau: Mat, name: str | None = None) -> HopfAlgebra:
    """Twist the tensor product A x B by the 2-cocycle built from tau.

    Each structure map is one network of ``_DOUBLE`` over the structure
    tensors of A and B and the pairing T.
    """
    nb = b.dim
    tensors = {**_tensors(a, "A"), **_tensors(b, "B"), "T": (tau, (a.dim, nb))}
    maps = {}
    for key, (out, spec) in _DOUBLE.items():
        t = contract_network(*_network(tensors, spec), open_wires=out.split())
        maps[key] = {tuple(k[n] * nb + k[n + 1] for n in range(0, len(k), 2)): c for k, c in t.items()}
    unit = {x: c for (x,), c in maps["unit"].items()}
    counit = {x: c for (x,), c in maps["counit"].items()}
    basis = tuple(f"{x}(x){y}" for x in a.basis for y in b.basis)
    return HopfAlgebra(name or f"D({a.name},{b.name})", basis, maps["mult"], unit, maps["comult"], counit,
                       maps["antipode"], False, None)


@dataclass
class HopfTriplet:
    name: str
    A: HopfAlgebra
    B: HopfAlgebra
    C: HopfAlgebra
    tau_AB: Mat
    tau_BC: Mat
    tau_CA: Mat
    default_integrals: dict[str, Vec] | None = None

    @property
    def weak(self) -> bool:
        """Whether any of the three algebras is weak, as in the weak triplet of an M with more than one point."""
        return self.A.weak or self.B.weak or self.C.weak

    def algebra(self, slot: str) -> HopfAlgebra:
        return {"A": self.A, "B": self.B, "C": self.C}[slot]

    def pairing(self, slots: tuple[str, str]) -> Mat:
        return {("A", "B"): self.tau_AB, ("B", "C"): self.tau_BC, ("C", "A"): self.tau_CA}[slots]


# tau_AB(a1, b2) tau_BC(b1, c2) tau_CA(c1, a2) = tau_AB(a2, b1) tau_BC(b2, c1) tau_CA(c2, a1)
_CYCLIC = [
    ("cyclic", [(
        "i j k",
        "DA i a b, DB j c d, DC k e f, TAB a d, TBC c f, TCA e b",
        "DA i a b, DB j c d, DC k e f, TAB b c, TBC d e, TCA f a",
    )]),
]


def check_triplet(t: HopfTriplet) -> dict[str, float]:
    """Residuals of the three skew pairings and the cyclic compatibility identity."""
    rep: dict[str, float] = {}
    for tag, tau, x, y in (
        ("AB", t.tau_AB, t.A, t.B),
        ("BC", t.tau_BC, t.B, t.C),
        ("CA", t.tau_CA, t.C, t.A),
    ):
        sub = check_skew_pairing(tau, x, y)
        for k, v in sub.items():
            rep[f"{tag}.{k}"] = v
    tensors = {
        **_tensors(t.A, "A"),
        **_tensors(t.B, "B"),
        **_tensors(t.C, "C"),
        "TAB": (t.tau_AB, (t.A.dim, t.B.dim)),
        "TBC": (t.tau_BC, (t.B.dim, t.C.dim)),
        "TCA": (t.tau_CA, (t.C.dim, t.A.dim)),
    }
    rep.update(_residuals(tensors, _CYCLIC))
    return rep


def kashaev_triplet(n: int) -> HopfTriplet:
    """Function and group algebras of Z/n with the quadratic root-of-unity pairing."""
    if n < 2:
        raise TrisectError("kashaev triplet needs n >= 2")
    g = cyclic(n)
    a = function_algebra(g)
    b = group_algebra(g)
    c = function_algebra(g)
    tau_ab: Mat = {(i, i): ONE for i in range(n)}
    tau_bc: Mat = {(i, i): ONE for i in range(n)}
    inv_n = Cyc.rational(Fraction(1, n))
    tau_ca: Mat = {
        (i, j): inv_n * Cyc.zeta(n, (i * j) % n) for i in range(n) for j in range(n)
    }
    return HopfTriplet(f"kashaev:n={n}", a, b, c, tau_ab, tau_bc, tau_ca)


def group_triplet(c_group: Group, b_group: Group) -> HopfTriplet:
    """C^K, K = C x B^op, paired against C[B^op] and C[C]: the weak triplet of a point, with no default integrals."""
    cfg = WeakConfig(c_group, b_group)
    k, t = cfg.k_group, _weak_triplet(cfg)
    return replace(
        t, name=f"group:C={c_group.name},B={b_group.name}", default_integrals=None,
        A=_on_point(t.A, k, f"C^({k.name})", functions=True),
        B=_on_point(t.B, b_group, f"C[{b_group.name}^op]", functions=False),
        C=_on_point(t.C, c_group, f"C[{c_group.name}]^cop^op", functions=False),
    )


# ---------------------------------------------------------------------------
# integrals


def compute_integral(h: HopfAlgebra) -> Vec:
    """The integral with eps(l) = dim, built from the dual-basis trace formula."""
    if h.weak:
        raise TrisectError("use action integrals for weak Hopf algebras")
    if not h.antipode_involutive():
        raise NonSemisimple(f"{h.name}: S^2 != id")
    ell: Vec = {}
    for (i, p, q), c in h.comult.items():
        if p == i:
            accumulate(ell, q, c)
    eps = h.counit_of(ell)
    if not eps:
        raise NonSemisimple(f"{h.name}: candidate integral has eps = 0")
    return ell


# h l = eps(h) l and l h = eps(h) l; for weak algebras h l = eps_t(h) l and
# l h = l eps_s(h), with eps_t and eps_s as in the weak antipode axioms
_INTEGRAL = [
    ("left_integral", [("i o", "M i l o, L l", "e i, L o")]),
    ("right_integral", [("i o", "M l i o, L l", "e i, L o")]),
]
_WEAK_INTEGRAL = [
    ("left_integral", [("i o", "M i l o, L l", "u t, D t p q, M p i k, e k, M q l o, L l")]),
    ("right_integral", [("i o", "M l i o, L l", "u t, D t p q, M i q k, e k, L l, M l p o")]),
]
_ANTIPODE_FIXES = [("antipode_fixes", [("o", "L l, S l o", "L o")])]


def check_integral(h: HopfAlgebra, ell: Vec) -> dict[str, float]:
    tensors = {**_tensors(h), "L": ({(i,): c for i, c in ell.items()}, (h.dim,))}
    return _residuals(tensors, (_WEAK_INTEGRAL if h.weak else _INTEGRAL) + _ANTIPODE_FIXES)


# ---------------------------------------------------------------------------
# weak Hopf algebras from group actions


def crossed_index(mset: GSet):
    """The basis index ``ix(m, n, k)`` of d_m d_n (x) k in the crossed product of ``mset``.

    The crossed product C^{MxM} x| C[K], its dual and their representations
    all use this one order: m, then n, then k fastest.
    """
    msz, ksz = mset.size, mset.group.order
    return lambda m, n, k: (m * msz + n) * ksz + k


def _crossed_dual(mset: GSet) -> HopfAlgebra:
    """<MxM> (x) C^K, the dual of the crossed product of ``mset``: its tensors, written out once.

    Indices are ``crossed_index``'s, computed inline.  Each map lists its
    entries in the order of the crossed product's map that ``dual`` turns it
    into, so ``dual`` gives the crossed product back in that order too.
    """
    k, act = mset.group, mset.act
    msz, ksz, lab = mset.size, k.order, mset.labels
    ms, ks = range(msz), range(ksz)
    basis = tuple(f"{lab[m]}{lab[n]}(x)d{k.labels[g]}" for m in ms for n in ms for g in ks)
    mult, comult, antipode = {}, {}, {}
    for m in ms:
        for n in ms:
            mn = (m * msz + n) * ksz  # the index of (m, n, g) is mn + g
            for g in ks:
                gi = k.inverse(g)
                p, q = act[gi][m], act[gi][n]
                # in the crossed product (d_m d_n (x) g)(d_p d_q (x) h) is nonzero only at (p, q) = g^-1 (m, n)
                pq = (p * msz + q) * ksz
                for h, gh in enumerate(k.table[g]):
                    comult[(mn + gh, mn + g, pq + h)] = ONE
                for x in ms:
                    mult[((m * msz + x) * ksz + g, (x * msz + n) * ksz + g, mn + g)] = ONE
                antipode[((q * msz + p) * ksz + gi, mn + g)] = ONE
    unit = {(m * msz + m) * ksz + g: ONE for m in ms for g in ks}
    counit = {(m * msz + n) * ksz: ONE for m in ms for n in ms}
    return HopfAlgebra(f"<MxM>(x)C^{k.name}", basis, mult, unit, comult, counit, antipode, weak=msz > 1)


def weak_hopf_from_action(mset: GSet, strict: bool = True) -> tuple[HopfAlgebra, HopfAlgebra]:
    """The crossed product C^{MxM} x| C[K] and its dual, from a transitive K-set."""
    if strict and not mset.is_transitive():
        raise TrisectError("the action must be transitive")
    k, lab, vec = mset.group, mset.labels, _crossed_dual(mset)
    ms = range(mset.size)
    basis = tuple(f"d{lab[m]}d{lab[n]}(x){k.labels[g]}" for m in ms for n in ms for g in range(k.order))
    return replace(dual(vec), name=f"C^(MxM)x|C[{k.name}]", basis=basis), vec


def weak_integrals_from_action(mset: GSet) -> tuple[Vec, Vec]:
    """Integrals of the crossed product and of its dual (in that order)."""
    msz, ksz = mset.size, mset.group.order
    ix = crossed_index(mset)
    lam = {ix(m, m, g): ONE for m in range(msz) for g in range(ksz)}
    ell = {ix(m, n, 0): ONE for m in range(msz) for n in range(msz)}
    return lam, ell


def weak_triplet(c_group: Group, b_group: Group, mset: GSet | None = None) -> HopfTriplet:
    """The weak Hopf triplet from a transitive C x B^op action on a finite set."""
    return _weak_triplet(WeakConfig(c_group, b_group, mset))


def _weak_triplet(cfg: WeakConfig) -> HopfTriplet:
    c_group, b_group = cfg.c_group, cfg.b_group
    mset, ms = cfg.mset, range(cfg.msize)
    nb, nc = b_group.order, c_group.order
    h_a = cop(_crossed_dual(mset))  # copped at once, so the uncopped dual is freed before B and C are built
    # the restrictions of M to B^op and to C, which need not be transitive
    m_b = GSet(opposite(b_group), mset.labels, tuple(tuple(cfg.act_b(m, b) for m in ms) for b in range(nb)))
    m_c = GSet(c_group, mset.labels, tuple(tuple(cfg.act_c(c, m) for m in ms) for c in range(nc)))
    h_b, _ = weak_hopf_from_action(m_b, strict=False)
    h_c, _ = weak_hopf_from_action(m_c, strict=False)
    ixk, ixb, ixc = crossed_index(mset), crossed_index(m_b), crossed_index(m_c)
    tau_ca: Mat = {(ixc(p, q, c), ixk(p, q, cfg.k_of_c(c))): ONE for p in ms for q in ms for c in range(nc)}
    tau_ab: Mat = {(ixk(p, q, cfg.k_of_b(b)), ixb(p, q, b)): ONE for p in ms for q in ms for b in range(nb)}
    tau_bc: Mat = {
        (ixb(p, q, b), ixc(m, p, c)): ONE
        for p in ms for q in ms for b in range(nb) for m in ms for c in range(nc)
        if p == cfg.act_c(c, q) and p == cfg.act_b(m, b)
    }
    name = f"weak:C={c_group.name},B={b_group.name},|M|={cfg.msize}"
    ints = {
        "A": weak_integrals_from_action(mset)[1],
        "B": weak_integrals_from_action(m_b)[0],
        "C": weak_integrals_from_action(m_c)[0],
    }
    return HopfTriplet(name, h_a, h_b, op(cop(h_c)), tau_ab, tau_bc, tau_ca, default_integrals=ints)


def weak_simple_reps(mset: GSet) -> list[Rep]:
    """Simple representations of the crossed product, one per (orbit, character).

    Each is induced from a character of the stabilizer of the orbit's
    basepoint pair, so every such stabilizer must be abelian.  On a point the
    crossed product is C[K], so these are the irreducibles of C[K], one per
    character of ``Group.characters`` in its order; ``_on_point`` gives them
    to C^K as the irreducibles of its dual.
    """
    k = mset.group
    msz, ksz = mset.size, k.order
    ix = crossed_index(mset)
    reps: list[Rep] = []
    for orbit in mset.pair_orbits():
        m1, m2 = orbit["base"]
        transversal = orbit["transversal"]
        pairs = sorted(transversal)
        stab_members = mset.stabilizer_pair(m1, m2)
        sub, members = k.subgroup(stab_members, name=f"Stab{m1},{m2}")
        pos_in_sub = {g: i for i, g in enumerate(members)}
        if not sub.is_abelian():
            raise MissingIrreps(f"stabilizer of {m1},{m2} is nonabelian; its representations are not known")
        e = sub.exponent()
        psis = [Rep(f"chi{r}", 1, [{(0, 0): Cyc.zeta(e, x)} for x in vec]) for r, vec in enumerate(sub.characters())]
        for psi in psis:
            dim = len(pairs) * psi.dim
            mats: list[Mat] = [dict() for _ in range(msz * msz * ksz)]
            pair_pos = {pq: t for t, pq in enumerate(pairs)}
            for g in range(ksz):
                for (p, q), h_pq in transversal.items():
                    tp, tq = mset.apply(g, p), mset.apply(g, q)
                    h_t = transversal[(tp, tq)]
                    inner = k.mul(k.inverse(h_t), k.mul(g, h_pq))
                    pm = psi.mats[pos_in_sub[inner]]
                    row0 = pair_pos[(tp, tq)] * psi.dim
                    col0 = pair_pos[(p, q)] * psi.dim
                    # the delta factors select the target pair: the basis
                    # element (m, n, g) maps V_{p,q} into V_{g|>p, g|>q} and
                    # is supported where (m, n) equals that target
                    target = mats[ix(tp, tq, g)]
                    for (r, s), cval in pm.items():
                        accumulate(target, (row0 + r, col0 + s), cval)
            reps.append(Rep(f"O{m1},{m2};{psi.name}", dim, mats))
    return reps


# ---------------------------------------------------------------------------
# the float backend


def _float_vec(v):
    return {k: to_complex(x) for k, x in v.items()}


def float_algebra(h: HopfAlgebra) -> HopfAlgebra:
    """The same algebra with every structure constant as a complex number."""
    return HopfAlgebra(
        h.name, h.basis, _float_vec(h.mult), _float_vec(h.unit), _float_vec(h.comult), _float_vec(h.counit),
        _float_vec(h.antipode), h.weak, h.dual_irreps,
    )


def float_triplet(t: HopfTriplet) -> HopfTriplet:
    """The same triplet on the float backend: algebras, pairings and integrals as complex numbers."""
    return HopfTriplet(
        t.name + " (float)",
        float_algebra(t.A),
        float_algebra(t.B),
        float_algebra(t.C),
        _float_vec(t.tau_AB),
        _float_vec(t.tau_BC),
        _float_vec(t.tau_CA),
        None if t.default_integrals is None else {s: _float_vec(v) for s, v in t.default_integrals.items()},
    )


# ---------------------------------------------------------------------------
# structure-constant files


def _parse_scalar(x):
    if isinstance(x, bool):
        raise TrisectError("boolean is not a scalar")
    if isinstance(x, int):
        return Cyc.rational(x)
    if isinstance(x, float):
        return complex(x)
    try:
        if isinstance(x, str):
            return Cyc.rational(Fraction(x))
        if isinstance(x, list) and len(x) == 2:
            return complex(x[0], x[1])
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise TrisectError(f"cannot parse scalar {x!r}")


def _entries(data: dict, key: str, shape: tuple[int, ...]) -> dict:
    """The nonzero scalars of the nested list ``data[key]``, keyed by index tuple.

    The list must have exactly ``shape``: one level per axis, each the length
    of its axis.
    """
    out: dict = {}

    def walk(x, idx: tuple[int, ...]) -> None:
        if len(idx) == len(shape):
            s = _parse_scalar(x)
            if s:
                out[idx] = s
        elif isinstance(x, list) and len(x) == shape[len(idx)]:
            for i, y in enumerate(x):
                walk(y, idx + (i,))
        else:
            raise TrisectError(f"bad structure-constant file: {key} must be a {' x '.join(map(str, shape))} array")

    if key not in data:
        raise TrisectError(f"bad structure-constant file: no {key!r}")
    walk(data[key], ())
    return out


def algebra_from_json(data: dict, name: str = "H") -> HopfAlgebra:
    """An algebra from dense structure constants, on the axes of the stored tensors."""
    dim = data.get("dim") if isinstance(data, dict) else None
    if type(dim) is not int:
        raise TrisectError(f"bad structure-constant file for {name}: no valid dim")
    basis = data.get("basis", [f"e{i}" for i in range(dim)])
    if dim < 1 or not isinstance(basis, list) or len(basis) != dim:
        raise TrisectError(f"bad structure-constant file for {name}: dim {dim} needs a basis of {dim} names")
    weak = data.get("weak", False)
    if type(weak) is not bool:
        raise TrisectError(f"bad structure-constant file for {name}: weak must be true or false")
    vec, mat, cube = (dim,), (dim, dim), (dim, dim, dim)
    return HopfAlgebra(
        name, tuple(basis), _entries(data, "mult", cube),
        {i: c for (i,), c in _entries(data, "unit", vec).items()},
        _entries(data, "comult", cube),
        {i: c for (i,), c in _entries(data, "counit", vec).items()},
        _entries(data, "antipode", mat), weak,
    )


def triplet_from_json(data: dict) -> HopfTriplet:
    """A triplet from a ``file:`` object: algebras ``A``, ``B``, ``C`` and pairings ``tau_AB``, ``tau_BC``, ``tau_CA``."""
    if not isinstance(data, dict):
        raise TrisectError("bad triplet file: not a JSON object")
    alg = {slot: algebra_from_json(data.get(slot), name=slot) for slot in "ABC"}
    taus = [_entries(data, f"tau_{x}{y}", (alg[x].dim, alg[y].dim)) for x, y in ("AB", "BC", "CA")]
    name = data.get("name", "file")
    if not isinstance(name, str):
        raise TrisectError("bad triplet file: name must be a string")
    return HopfTriplet(name, alg["A"], alg["B"], alg["C"], *taus)
