"""The benchmark workloads: seeded inputs, one pass of checked operations each.

A workload is built once by ``setup(name, seed)``; building it covers the
triplet and algebra construction and the exact reference values.  Each call
of ``Workload.ops()`` then yields the operations of one pass in a fixed
order.  Every operation returns ``None`` when its output checks out, or the
name of the reason it failed.  Any random choice comes from ``random.Random``
seeded by the workload seed, so one seed always yields the same inputs and
every pass of a run repeats the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from trisect import bracket, cli, diagram, hopf, labelcount, moves
from trisect.errors import ResourceExceeded
from trisect.groups import coset_gset, cyclic, opposite, parse_group, product, symmetric

NAMES = ("ladder-exact", "ladder-float", "identities", "oracles")

# an operation's outcome: None, or one of these failure causes
CAP = "cap_exceeded"  # the contraction cap refused the operation
MISMATCH = "mismatch"  # a wrong value

# strong triplets only: the acceptance suite promises move invariance for these,
# and the weak triplets' non-invariance is a recorded finding (bench/README.md)
STRONG_SPECS = ("kashaev:n=3", "kashaev:n=6", "kashaev:n=8", "group:C=S3,B=Z/3", "group:C=S4,B=S3")

LADDER_GENERA = (1, 4, 7, 10)
LADDER_SLOTS = ("shuffle", "pad", "slide")
NOISE_MOVES = 4
FLOAT_REL_TOL = 1e-9
ORACLE_COUNT_DIAGRAMS = 5


@dataclass
class Workload:
    ops: Callable[[], Iterator[Callable[[], str | None]]]
    # exact reference values by triplet spec (ladders only); the self-tests corrupt one
    refs: dict = field(default_factory=dict)


def _stabilized(genus: int) -> diagram.TrisectionDiagram:
    d = diagram.cp2()
    while d.genus < genus:
        d = moves.stabilize(d)
    return d


def _noise(d, rng: random.Random):
    """Seeded random moves that keep every curve's length and every component.

    With ``max_visits=1`` random_move can only shift basepoints, reverse
    orientations and flip triangles, so the noise changes the diagram data
    without changing the cost of evaluating it.
    """
    for _ in range(NOISE_MOVES):
        _, d = moves.random_move(d, rng, max_visits=1)
    return d


def _copy_of(d, name: str, rng: random.Random) -> str:
    """The id of one stabilization's copy of a standard-S4 curve, chosen by the seed."""
    return rng.choice(sorted(c.id for c in d.curves if c.id.split("~")[0] == name))


def perturb(base, slot: str, seed: int):
    """One ladder diagram: seeded noise, then the slot's structural move.

    The structural move is fixed by the slot and only its copy, positions and
    sign come from the seed.  ``pad`` inserts a crossing pair between the two
    one-visit curves of one handle; ``slide`` slides one handle's blue curve
    over another's, which merges the two components.  Left to random_move,
    these moves made one S4xS3 bracket up to 2.7x dearer than another at the
    same genus, depending on which colour got padded and which components
    merged, so the cost of a pass depended on the seed; see bench/README.md.
    """
    rng = random.Random(seed)
    d = _noise(base, rng)
    if base.genus == 1 or slot == "shuffle":
        return d
    if slot == "pad":
        k = _copy_of(d, "F1", rng)
        partner = "b1" + k[len("F1") :]
        return moves.two_point_insert(d, k, rng.randrange(2), partner, rng.randrange(2), rng.choice((1, -1)))
    return moves.handle_slide(
        d, _copy_of(d, "b1", rng), _copy_of(d, "b3", rng), rng.randrange(2), 0, rng.choice((1, -1))
    )


def ladder_plan(seed: int, genera=LADDER_GENERA, slots=LADDER_SLOTS) -> list[tuple[object, str, int]]:
    """(base diagram, slot, move seed) for every diagram of the ladder."""
    rng = random.Random(seed)
    return [(_stabilized(g), slot, rng.getrandbits(32)) for g in genera for slot in slots]


def ladder_diagrams(plan):
    """The perturbed ladder of one pass; the moves run here, inside the timed pass."""
    for base, slot, sub in plan:
        yield perturb(base, slot, sub)


def _ladder(seed: int, backend: str, specs, genera, slots) -> Workload:
    plan = ladder_plan(seed, genera, slots)
    exact = {s: cli.parse_triplet(s) for s in specs}
    refs = {s: bracket.invariant(diagram.cp2(), bracket.BracketConfig(t)) for s, t in exact.items()}
    if backend == "exact":
        cfgs = {s: bracket.BracketConfig(t) for s, t in exact.items()}
    else:
        cfgs = {s: bracket.BracketConfig(cli.parse_triplet(s, "float")) for s in specs}

    def check(spec: str, d) -> str | None:
        try:
            got = bracket.invariant(d, cfgs[spec])
        except ResourceExceeded:
            return CAP
        ref = refs[spec]
        if backend == "exact":
            ok = got == ref
        else:
            want = ref.approx()
            ok = abs(got.approx() - want) <= FLOAT_REL_TOL * max(1.0, abs(want))
        return None if ok else MISMATCH

    def ops():
        for d in ladder_diagrams(plan):
            for spec in specs:
                yield lambda spec=spec, d=d: check(spec, d)

    return Workload(ops, refs)


def _residuals_ok(rep: dict[str, float]) -> str | None:
    return None if all(v == 0.0 for v in rep.values()) else MISMATCH


def _split_double(a: hopf.HopfAlgebra, b: hopf.HopfAlgebra, tau, name: str):
    """A generalized double with the product of the two integrals (a split integral)."""
    dbl = hopf.generalized_double(a, b, tau, name=name)
    la, lb = hopf.compute_integral(a), hopf.compute_integral(b)
    return dbl, {i * b.dim + j: x * y for i, x in la.items() for j, y in lb.items()}


def _identities(seed: int, scale: int) -> Workload:
    doubles = []
    t = hopf.kashaev_triplet(4)
    doubles.append(_split_double(t.C, t.A, t.tau_CA, "D(kashaev 4)"))
    if scale > 1:
        s3 = hopf.group_algebra(symmetric(3))
        s3sc = hopf.cop(hopf.dual(s3))
        doubles.append(_split_double(s3sc, s3, hopf.canonical_pairing(s3sc, s3), "D(S3)"))
    # D(kashaev 5) and the S3xS3 and Z/6xS3 triplets are left out: at 2.5 s a
    # check they make a pass 11 s long, too few passes in a run for a steady median
    specs = ("kashaev:n=5", "kashaev:n=6", "group:C=S3,B=Z/3", "group:C=Z/2,B=S3")[: 2 * scale]
    triplets = [cli.parse_triplet(s) for s in specs]
    k22 = product(cyclic(2), opposite(cyclic(2)), name="Z/2xZ/2^op")
    weak = hopf.weak_hopf_from_action(coset_gset(k22, [3]))[: scale]

    jobs: list[Callable[[], str | None]] = []
    for dbl, ell in doubles:
        jobs.append(lambda h=dbl: _residuals_ok(hopf.check_hopf_axioms(h)))
        jobs.append(lambda h=dbl, ell=ell: _residuals_ok(hopf.check_integral(h, ell)))
    for t in triplets:
        jobs.append(lambda t=t: _residuals_ok(hopf.check_triplet(t)))
    for h in weak:
        jobs.append(lambda h=h: _residuals_ok(hopf.check_hopf_axioms(h)))
    # the seed fixes the order of the checks; the set of checks is the same
    random.Random(seed).shuffle(jobs)

    return Workload(lambda: iter(jobs))


def oracle_diagrams(seed: int, count: int = 1) -> list[diagram.TrisectionDiagram]:
    """Seeded genus-4 ``slide`` diagrams: two components of each are merged.

    The rep backend enumerates labellings per component, so the merged pair
    sets its cost: 783 labellings for kashaev:n=3 and 1368 for Z/2 x Z/3.
    """
    rng = random.Random(seed)
    base = _stabilized(4)
    return [perturb(base, "slide", rng.getrandbits(32)) for _ in range(count)]


def _oracles(seed: int, scale: int) -> Workload:
    # the S3 x Z/3 count runs on several diagrams: on one, its 16-23 ms cost,
    # the median operation of the pass, depended on the seed
    diagrams = oracle_diagrams(seed, ORACLE_COUNT_DIAGRAMS if scale > 1 else 1)
    d = diagrams[0]
    cross = [cli.parse_triplet(s) for s in ("kashaev:n=3", "group:C=Z/2,B=Z/3")[:scale]]
    s4_count = [labelcount.WeakConfig(parse_group("S4"), parse_group("S3"))][: scale - 1]
    s3_count = labelcount.WeakConfig(parse_group("S3"), parse_group("Z/3"))
    k22 = product(cyclic(2), opposite(cyclic(2)), name="Z/2xZ/2^op")
    averaged = [
        labelcount.WeakConfig(cyclic(2), cyclic(2)),
        labelcount.WeakConfig(cyclic(2), cyclic(2), coset_gset(k22, [3])),
    ][:scale]
    emb = diagram.cp2_embedded()

    def cross_check(t) -> str | None:
        try:
            return None if bracket.cross_check(d, bracket.BracketConfig(t)).ok else MISMATCH
        except ResourceExceeded:
            return CAP

    def coincidence(e, cfg) -> str | None:
        try:
            return None if labelcount.coincidence_check(e, cfg).ok else MISMATCH
        except ResourceExceeded:
            return CAP

    def average(cfg) -> str | None:
        fast = labelcount.averaged_evaluation(emb, cfg)
        return None if fast == labelcount.averaged_by_brute_force(emb, cfg) else MISMATCH

    jobs = [lambda t=t: cross_check(t) for t in cross]
    jobs += [lambda c=c: coincidence(d, c) for c in s4_count]
    jobs += [lambda e=e: coincidence(e, s3_count) for e in diagrams]
    jobs += [lambda c=c: average(c) for c in averaged]
    return Workload(lambda: iter(jobs))


def setup(name: str, seed: int, scale: int = 2) -> Workload:
    """Build a workload.

    ``scale=1`` is the reduced size the self-tests use: each list of inputs
    keeps only its cheapest members.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
    if name.startswith("ladder-"):
        full = scale > 1
        return _ladder(
            seed,
            name.split("-")[1],
            STRONG_SPECS if full else STRONG_SPECS[:1],
            LADDER_GENERA if full else LADDER_GENERA[:2],
            LADDER_SLOTS if full else LADDER_SLOTS[1:2],
        )
    if name == "identities":
        return _identities(seed, scale)
    return _oracles(seed, scale)
