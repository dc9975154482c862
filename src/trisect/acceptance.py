"""The acceptance suite: one callable per criterion, shared by CLI and tests.

Each criterion prints as a single pass/fail line with a residual and runtime.
All expected values are either exact identities, independently derived counts,
or frozen regression fixtures recorded below.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import bracket, hopf, labelcount, moves
from .diagram import (
    TrisectionDiagram,
    cp2,
    cp2_embedded,
    euler_characteristic,
    standard_s4,
    standard_s4_disc,
    standard_s4_embedded,
)
from .groups import Group, WeakConfig, bimodule_group, coset_gset, cyclic, point_gset, product, symmetric
from .scalars import Cyc

ONE = Cyc.rational(1)

# frozen Kashaev regression values for cp2: bracket of cp2 and of the standard
# S^4 diagram, as exact cyclotomic coordinates over the power basis
KASHAEV_CP2_FIXTURES = {
    2: {"level": 1, "cp2": ["0"], "s4": ["64"]},
    3: {"level": 3, "cp2": ["3", "6"], "s4": ["729", "0"]},
    4: {"level": 4, "cp2": ["8", "8"], "s4": ["4096", "0"]},
    5: {"level": 5, "cp2": ["-5", "0", "-10", "-10"], "s4": ["15625", "0", "0", "0"]},
}


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    residual: float
    runtime: float

    def line(self) -> str:
        flag = "PASS" if self.ok else "FAIL"
        return f"{flag} criterion {self.number:>2} {self.name}: {self.detail} residual={self.residual:g} ({self.runtime:.1f}s)"


def _suite_groups() -> list[Group]:
    return [cyclic(n) for n in range(2, 7)] + [symmetric(3)]


def _small_groups() -> list[Group]:
    return [cyclic(n) for n in range(2, 7)] + [symmetric(3), product(cyclic(2), cyclic(2), name="Z/2xZ/2")]


def _suite_algebras() -> list[hopf.HopfAlgebra]:
    out = []
    for g in _suite_groups():
        out.append(hopf.group_algebra(g))
        out.append(hopf.function_algebra(g))
    return out


def _kashaev_doubles(ns=(2, 3, 4, 5, 6)) -> list[tuple[hopf.HopfAlgebra, dict, dict]]:
    """Doubles D(C, A) for the root-of-unity pairing, with their split integrals."""
    out = []
    for n in ns:
        t = hopf.kashaev_triplet(n)
        d = hopf.generalized_double(t.C, t.A, t.tau_CA, name=f"D(kashaev {n})")
        la, lb = hopf.compute_integral(t.C), hopf.compute_integral(t.A)
        ell = {i * t.A.dim + j: a * b for i, a in la.items() for j, b in lb.items()}
        out.append((d, la, ell))
    return out


def _extra_doubles():
    a2, b3 = hopf.group_algebra(cyclic(2)), hopf.group_algebra(cyclic(3))
    triv = hopf.generalized_double(a2, b3, hopf.trivial_pairing(a2, b3), name="D(trivial)")
    s3 = hopf.group_algebra(symmetric(3))
    s3sc = hopf.cop(hopf.dual(s3))
    drin = hopf.generalized_double(s3sc, s3, hopf.canonical_pairing(s3sc, s3), name="D(S3)")
    out = []
    for d, a, b in ((triv, a2, b3), (drin, s3sc, s3)):
        la, lb = hopf.compute_integral(a), hopf.compute_integral(b)
        ell = {i * b.dim + j: x * y for i, x in la.items() for j, y in lb.items()}
        out.append((d, la, ell))
    return out


def _weak_suite():
    """(name, gset) pairs with |K| <= 12 and |M| <= 3."""
    out = []
    k22 = bimodule_group(cyclic(2), cyclic(2))
    out.append(("K=Z/2xZ/2,|M|=1", point_gset(k22)))
    out.append(("K=Z/2xZ/2,|M|=2", coset_gset(k22, [3])))
    out.append(("K=Z/3xZ/2,|M|=3", coset_gset(bimodule_group(cyclic(3), cyclic(2)), [1])))
    out.append(("K=Z/3xZ/4,|M|=1", point_gset(bimodule_group(cyclic(3), cyclic(4)))))
    return out


def _cosets(c: Group, b: Group, gens: list[int]) -> WeakConfig:
    """M = the cosets in C x B^op of the subgroup that ``gens`` generate."""
    return WeakConfig(c, b, coset_gset(bimodule_group(c, b), gens))


def _move_triplets():
    return {
        "kashaev:n=2": hopf.kashaev_triplet(2),
        "kashaev:n=3": hopf.kashaev_triplet(3),
        "group:C=Z/2,B=Z/3": hopf.group_triplet(cyclic(2), cyclic(3)),
    }


# ---------------------------------------------------------------------------


def criterion_1():
    """Hopf axiom suite for group/function algebras and the Kashaev doubles."""
    checked = 0
    for h in _suite_algebras():
        rep = hopf.check_hopf_axioms(h)
        if max(rep.values()) != 0.0:
            return False, f"{h.name} fails: {rep}", max(rep.values())
        checked += 1
    for d, _, _ in _kashaev_doubles() + _extra_doubles():
        rep = hopf.check_hopf_axioms(d)
        if max(rep.values()) != 0.0:
            return False, f"{d.name} fails: {rep}", max(rep.values())
        checked += 1
    return True, f"{checked} algebras pass all axioms exactly (incl. S^2=id)", 0.0


def criterion_2():
    """Skew-pairing and cyclic-compatibility identities."""
    checked = 0
    for n in range(2, 7):
        rep = hopf.check_triplet(hopf.kashaev_triplet(n))
        if max(rep.values()) != 0.0:
            return False, f"kashaev n={n}: {rep}", max(rep.values())
        checked += 1
    for c in _small_groups():
        for b in _small_groups():
            rep = hopf.check_triplet(hopf.group_triplet(c, b))
            if max(rep.values()) != 0.0:
                return False, f"group C={c.name} B={b.name}: {rep}", max(rep.values())
            checked += 1
    return True, f"{checked} triplets satisfy all identities exactly", 0.0


def criterion_3():
    """Integral identities on the suite algebras and split integrals of doubles."""
    checked = 0
    for h in _suite_algebras():
        ell = hopf.compute_integral(h)
        rep = hopf.check_integral(h, ell)
        eps = h.counit_of(ell)
        if max(rep.values()) != 0.0 or not eps == Cyc.rational(h.dim):
            return False, f"{h.name}: integral fails ({rep}, eps={eps})", max(rep.values())
        checked += 1
    for d, _, ell in _kashaev_doubles() + _extra_doubles():
        rep = hopf.check_integral(d, ell)
        if max(rep.values()) != 0.0:
            return False, f"{d.name}: split integral fails {rep}", max(rep.values())
        checked += 1
    return True, f"{checked} integrals satisfy h*l=eps(h)l, S(l)=l, eps(l)=dim", 0.0


def criterion_4():
    """Weak axioms, weak integrals, and representation bookkeeping."""
    for name, mset in _weak_suite():
        cross, vec = hopf.weak_hopf_from_action(mset)
        for h in (cross, vec):
            rep = hopf.check_hopf_axioms(h)
            if max(rep.values()) != 0.0:
                return False, f"{name}: {h.name} fails {rep}", max(rep.values())
        lam, ell = hopf.weak_integrals_from_action(mset)
        r1 = hopf.check_integral(cross, lam)
        r2 = hopf.check_integral(vec, ell)
        if max(r1.values()) != 0.0 or max(r2.values()) != 0.0:
            return False, f"{name}: weak integral fails", max(max(r1.values()), max(r2.values()))
        reps = hopf.weak_simple_reps(mset)
        total = sum(r.dim**2 for r in reps)
        want = mset.size**2 * mset.group.order
        if total != want:
            return False, f"{name}: sum dim^2 = {total} != {want}", 1.0
    return True, f"{len(_weak_suite())} actions pass weak axioms, integrals, sum dim^2 = |M|^2|K|", 0.0


def _bracket(d, t, evaluator="element", scale=None):
    cfg = bracket.BracketConfig(t, evaluator=evaluator, integral_scale=scale or {})
    return bracket.trisection_bracket(d, cfg)


def criterion_5():
    """Bracket invariance under every move generator; invariant under stabilization."""
    diagrams = {"s4": standard_s4(), "cp2": cp2()}
    count = 0
    for tname, t in _move_triplets().items():
        for dname, d in diagrams.items():
            base = _bracket(d, t)
            variants = []
            for c in d.curves:
                if c.visits:
                    variants.append(moves.shift_basepoint(d, c.id, 1))
                variants.append(moves.reverse_orientation(d, c.id))
            ca = d.curves[0]
            cb = next(c for c in d.curves if c.color != ca.color)
            for s in (1, -1):
                ins = moves.two_point_insert(d, ca.id, 0, cb.id, 0, s)
                variants.append(ins)
                newx = [x.id for x in ins.crossings if x.id.startswith("tp")]
                variants.append(moves.two_point_delete(ins, newx[0], newx[1]))
            if dname == "cp2":
                variants.append(moves.three_point_flip(d, "p_ab", "p_bc", "p_ca"))
                padded = moves.two_point_insert(d, "a", 1, "b", 1, 1)
                flipped = moves.three_point_flip(padded, "p_ab", "p_bc", "p_ca")
                if _bracket(padded, t) != _bracket(flipped, t):
                    return False, f"{tname} cp2 padded flip changes the bracket", 1.0
            else:
                # build a triangle on the third handle, then flip it
                padded = moves.two_point_insert(d, "b3", 1, "c3", 0, 1)
                tri = moves.three_point_flip(padded, "x5", "tp2", "x6")
                if _bracket(padded, t) != _bracket(tri, t):
                    return False, f"{tname} s4 triangle flip changes the bracket", 1.0
                for lam, mu in (("F1", "F2"), ("b1", "b2"), ("c1", "c3")):
                    for direction in (1, -1):
                        variants.append(moves.handle_slide(d, lam, mu, 0, 0, direction))
            for v in variants:
                if _bracket(v, t) != base:
                    return False, f"{tname} on {dname}: a move changed the bracket", 1.0
                count += 1
            iv = bracket.invariant(d, bracket.BracketConfig(t))
            ivs = bracket.invariant(moves.stabilize(d), bracket.BracketConfig(t))
            if iv != ivs:
                return False, f"{tname} on {dname}: stabilization changed the invariant", 1.0
        # handle slides on a stabilized cp2 (cp2 itself has one curve per colour)
        s = moves.stabilize(cp2())
        base = _bracket(s, t)
        for lam, mu in (("a", "F1"), ("F1", "a")):
            v = moves.handle_slide(s, lam, mu, 0, 0, 1)
            if _bracket(v, t) != base:
                return False, f"{tname}: slide on stabilize(cp2) changed the bracket", 1.0
            count += 1
    # float backend spot checks at 1e-9 relative tolerance
    tf = hopf.float_triplet(hopf.kashaev_triplet(3))
    d = cp2()
    basef = _bracket(d, tf)
    worst = 0.0
    for v in (
        moves.shift_basepoint(d, "a", 1),
        moves.reverse_orientation(d, "g"),
        moves.two_point_insert(d, "a", 0, "g", 1, -1),
    ):
        val = _bracket(v, tf)
        worst = max(worst, abs(val - basef) / max(1.0, abs(basef)))
    if worst > 1e-9:
        return False, f"float backend drift {worst:g}", worst
    return True, f"{count} move variants leave the bracket unchanged; stabilization fixed by xi^-g", worst


def criterion_6():
    """Connected-sum multiplicativity of the bracket."""
    pairs = [(standard_s4(), standard_s4()), (standard_s4(), cp2()), (cp2(), cp2())]
    n = 0
    for tname, t in _move_triplets().items():
        for t1, t2 in pairs:
            rep = bracket.bracket_multiplicativity_check(t1, t2, bracket.BracketConfig(t))
            if not rep.ok:
                return False, f"{tname}: {rep}", 1.0
            n += 1
    return True, f"{n} connected sums multiply exactly", 0.0


def criterion_7():
    """Element and representation backends agree; rescaling scales by z^g."""
    slid = cp2()
    while slid.genus < 7:
        slid = moves.stabilize(slid)
    # sliding one handle's blue curve over another's merges two components
    slid = moves.handle_slide(slid, "b1", "b3", 0, 0, 1)
    diagrams = {"s4": standard_s4(), "cp2": cp2(), "stab(cp2)": moves.stabilize(cp2()), "slide(genus 7)": slid}
    n = 0
    for tname, t in _move_triplets().items():
        for dname, d in diagrams.items():
            rep = bracket.cross_check(d, bracket.BracketConfig(t))
            if not rep.ok:
                return False, f"{tname} on {dname}: {rep}", 1.0
            n += 1
    z = Cyc.rational(Fraction(3, 2))
    zc = ONE + Cyc.zeta(3)
    for d, g in ((cp2(), 1), (standard_s4(), 3)):
        t = hopf.kashaev_triplet(3)
        for which, scale in (("B", z), ("A", zc)):
            base_e = _bracket(d, t)
            base_r = _bracket(d, t, evaluator="rep")
            se = _bracket(d, t, scale={which: scale})
            sr = _bracket(d, t, evaluator="rep", scale={which: scale})
            if se != scale**g * base_e or sr != scale**g * base_r:
                return False, f"rescaling by z did not scale the bracket by z^{g}", 1.0
    return True, f"{n} cross-checks agree exactly; z-rescaling scales both backends by z^g", 0.0


def criterion_8():
    """Counting oracles: boundary counts, factorization, rep-theoretic average."""
    cfg_m2 = _cosets(cyclic(2), cyclic(2), [3])
    cfg_m3 = _cosets(cyclic(3), cyclic(2), [1])
    disc = standard_s4_disc()
    for cfg in (cfg_m2, cfg_m3):
        want = cfg.b_group.order * cfg.c_group.order
        for m in range(cfg.msize):
            got = labelcount.count_admissible(disc, cfg, boundary_label=m)
            if got != want:
                return False, f"|l_st| with boundary {m} is {got}, want |B||C|={want}", 1.0
    configs = [
        WeakConfig(cyclic(2), cyclic(2)),
        cfg_m2,
        cfg_m3,
        _cosets(cyclic(3), cyclic(3), [4]),
        WeakConfig(cyclic(2), cyclic(3)),
    ]
    for cfg in configs:
        for e, d in ((standard_s4_embedded(), standard_s4()), (cp2_embedded(), cp2())):
            lhs = labelcount.count_admissible(e, cfg)
            rhs = cfg.msize * labelcount.count_curve_labellings(d, cfg)
            if lhs != rhs:
                return False, f"factorization fails: {lhs} != |M| x {rhs // max(1, cfg.msize)}", 1.0
    for cfg in (WeakConfig(cyclic(2), cyclic(2)), cfg_m2, cfg_m3):
        av = labelcount.averaged_evaluation(cp2_embedded(), cfg)
        brute = labelcount.averaged_by_brute_force(cp2_embedded(), cfg)
        if not av == brute:
            return False, f"averaged evaluation {av} != brute-force sum {brute}", 1.0
    return True, "boundary counts, factorization, and the rep-theoretic average all match", 0.0


def criterion_9():
    """Invariant of the standard S^4 diagram and the counting coincidence."""
    for n in (2, 3, 4, 5):
        t = hopf.kashaev_triplet(n)
        iv = bracket.invariant(standard_s4(), bracket.BracketConfig(t))
        if not iv == 1:
            return False, f"kashaev n={n}: invariant(S4) != 1", 1.0
    for c, b in ((cyclic(2), cyclic(3)), (cyclic(2), cyclic(2)), (symmetric(3), cyclic(2))):
        t = hopf.group_triplet(c, b)
        iv = bracket.invariant(standard_s4(), bracket.BracketConfig(t))
        if not iv == 1:
            return False, f"group C={c.name},B={b.name}: invariant(S4) != 1", 1.0
    for cfg in (WeakConfig(cyclic(2), cyclic(3)), WeakConfig(cyclic(3), cyclic(2))):
        if not labelcount.group_count_invariant(standard_s4(), cfg) == cfg.msize:
            return False, "group_count_invariant(S4, point) != 1", 1.0
    for cfg in (WeakConfig(cyclic(2), cyclic(3)), _cosets(cyclic(2), cyclic(2), [3])):
        for d in (standard_s4(), cp2(), moves.stabilize(cp2())):
            rep = labelcount.coincidence_check(d, cfg)
            if not rep.ok:
                return False, f"coincidence fails: {rep}", 1.0
    return True, "invariant(S4)=1 for all shipped triplets; counting coincides with |M| x bracket", 0.0


def criterion_10():
    ok = euler_characteristic(3, 1) == 2 and euler_characteristic(1, 0) == 3 and euler_characteristic(0, 0) == 2
    if not ok:
        return False, "Euler characteristic values wrong", 1.0
    try:
        euler_characteristic(2, 3)
        return False, "k > g accepted", 1.0
    except Exception:
        pass
    return True, "chi(S4)=2 from (3,1), chi(CP2)=3 from (1,0)", 0.0


def _random_sequence(d: TrisectionDiagram, rng: random.Random, steps: int) -> TrisectionDiagram:
    for _ in range(steps):
        if rng.random() < 0.12 and d.genus <= 4:
            d = moves.stabilize(d)
            continue
        _, d = moves.random_move(d, rng, max_visits=6)
    return d


def criterion_11():
    """Kashaev invariants of cp2 are stable across randomized move sequences."""
    copies = 20
    steps = 5
    for n, fix in KASHAEV_CP2_FIXTURES.items():
        t = hopf.kashaev_triplet(n)
        cfg = bracket.BracketConfig(t)
        stab = bracket.trisection_bracket(standard_s4(), cfg)
        level = fix["level"]
        want_cp2 = Cyc(level, [Fraction(c) for c in fix["cp2"]])
        want_s4 = Cyc(level, [Fraction(c) for c in fix["s4"]])
        if not (stab == want_s4 and bracket.trisection_bracket(cp2(), cfg) == want_cp2):
            return False, f"n={n}: fixture mismatch", 1.0
        reference = bracket.InvariantValue(want_cp2, want_s4, 1)
        for copy in range(copies):
            rng = random.Random(1000 * n + copy)
            d = _random_sequence(cp2(), rng, steps)
            val = bracket.InvariantValue(bracket.trisection_bracket(d, cfg), stab, d.genus)
            if not val == reference:
                return False, f"n={n} copy {copy}: invariant changed under random moves", 1.0
    return True, f"{copies} randomized copies (x{len(KASHAEV_CP2_FIXTURES)} levels) reproduce the fixtures", 0.0


CRITERIA = [
    (1, "hopf-axioms", criterion_1),
    (2, "pairings-and-triplets", criterion_2),
    (3, "integral-identities", criterion_3),
    (4, "weak-hopf-suite", criterion_4),
    (5, "move-invariance", criterion_5),
    (6, "connected-sum-multiplicativity", criterion_6),
    (7, "backend-agreement", criterion_7),
    (8, "counting-oracles", criterion_8),
    (9, "invariant-values", criterion_9),
    (10, "euler-metadata", criterion_10),
    (11, "kashaev-stability", criterion_11),
]


def run_all(only: set[int] | None = None) -> list[CriterionResult]:
    jobs = [(num, name, fn) for num, name, fn in CRITERIA if only is None or num in only]

    def run(job):
        num, name, fn = job
        t0 = time.time()
        try:
            ok, detail, residual = fn()
        except Exception as exc:  # a crashed criterion is a failed criterion
            ok, detail, residual = False, f"exception: {exc!r}", float("nan")
        return CriterionResult(num, name, ok, detail, residual, time.time() - t0)

    return [run(j) for j in jobs]
