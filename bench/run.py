"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload ladder-exact --seed 1 --seconds 25 --trace 0

The workload is built from the seed, warmed up by one untimed pass, then run
pass after pass for ``--seconds`` (at least one pass).  Each
pass is a closed loop in one thread: an operation starts only after the
previous one has finished.  Every output is checked.  Every time is scaled
to a host of fixed speed, measured by a reference loop sampled between the
operations (see ``reference_loop``).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries run metadata that is
not compared between runs.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation.  With ``--trace 1`` half of the time runs untraced and half
traced (see ``tracer.py``), and the metrics are the per-layer ones, per
traced pass, plus the traced-to-untraced pass-time ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# fresh-process set-ups measured per run besides the run's own; the median of all is reported
SETUP_PROBES = 2

# The host's speed drifts by a quarter either way over minutes, in CPU time as
# much as in wall time, and the drift is invisible from inside.  A fixed probe
# that runs no trisect code is sampled once per REF_EVERY_S of operations;
# each pass's times are scaled by REF_SAMPLE_S over the median sample of that
# pass, i.e. to a host on which one sample takes REF_SAMPLE_S.
REF_SAMPLE_S = 0.0025
REF_EVERY_S = 0.05
SETUP_REF_SAMPLES = 25

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "scalars.mul_calls": "count",
    "scalars.add_calls": "count",
    "scalars.eq_calls": "count",
    "scalars.inverse_calls": "count",
    "scalars.mixed_level_ops": "count",
    "contraction.calls": "count",
    "contraction.busy_s": "s",
    "contraction.self_s": "s",
    "contraction.nodes_in": "count",
    "contraction.nnz_in": "count",
    "contraction.cap_exceeded": "count",
    "bracket.calls": "count",
    "bracket.self_s": "s",
    "bracket.s4_calls": "count",
    "bracket.s4_share": "ratio",
    "bracket.rep_s": "s",
    "bracket.rep_labellings": "count",
    "bracket.mismatch_ops": "count",
    "hopf.axioms_s": "s",
    "hopf.triplet_s": "s",
    "hopf.integral_s": "s",
    "hopf.counit_calls": "count",
    "hopf.product_calls": "count",
    "hopf.coproduct_calls": "count",
    "labelcount.dfs_s": "s",
    "labelcount.red_product_calls": "count",
    "labelcount.labellings": "count",
    "labelcount.useful_ratio": "ratio",
    "labelcount.region_s": "s",
    "labelcount.brute_s": "s",
    "moves.random_move_calls": "count",
    "moves.random_move_s": "s",
    "moves.triangle_search_s": "s",
    "moves.deletion_search_s": "s",
    "diagram.validate_s": "s",
    "diagram.lookup_calls": "count",
    "diagram.lookup_s": "s",
    "fail_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _import_workloads():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        import workloads
    except ImportError as exc:
        sys.exit(f"bench: cannot import the trisect package from {ROOT / 'src'}: {exc}")
    return workloads


class Tally:
    """Outcomes and latencies of the operations run so far."""

    def __init__(self) -> None:
        # by_op[i]: latencies of the i-th operation of a pass, one per pass
        self.by_op: list[list[float]] = []
        self.causes: dict[str, int] = {}
        self.attempted = 0

    @property
    def failed(self) -> int:
        return sum(self.causes.values())

    def record(self, latencies: list[float], causes: list[str | None]) -> None:
        """Add one pass's (scaled) latencies and outcomes, in operation order."""
        for i, (seconds, cause) in enumerate(zip(latencies, causes)):
            if i == len(self.by_op):
                self.by_op.append([])
            self.by_op[i].append(seconds)
            self.attempted += 1
            if cause is not None:
                self.causes[cause] = self.causes.get(cause, 0) + 1

    def op_latencies(self) -> list[float]:
        """Each operation's median latency over the passes."""
        return [statistics.median(v) for v in self.by_op]


def reference_loop() -> float:
    """The time of one run of the host speed probe, a fixed pure-Python mix.

    Integer arithmetic, dict updates and ``Fraction`` arithmetic each follow
    the drift in their own way, and so do the workloads' operations: scaled
    by the integer part alone, the ladders' pass times held steady but their
    small operations did not, and scaled by the dict part the reverse.
    """
    t0 = perf_counter()
    s = 0
    for i in range(12_000):
        s += i * i % 7
    d: dict[tuple[int, int], int] = {}
    for i in range(4_000):
        k = (i % 61, i % 53)
        d[k] = d.get(k, 0) + i
    a, q = Fraction(1, 3), Fraction(0)
    for i in range(1, 240):
        q += a * Fraction(i, i + 1)
    return perf_counter() - t0


def host_scale(samples: list[float]) -> float:
    """The factor that scales times taken alongside ``samples`` to the nominal host."""
    return REF_SAMPLE_S / statistics.median(samples)


def run_pass(wl, tally: Tally, raw: list[float] | None = None) -> float:
    """One pass over the workload's operations; returns its scaled time.

    The reference samples are taken between operations, one per REF_EVERY_S
    of operation time, and their own time is left out of the pass time.
    ``raw``, if given, receives the unscaled pass time.
    """
    samples = [reference_loop()]
    latencies: list[float] = []
    causes: list[str | None] = []
    owed = probing = 0.0
    start = perf_counter()
    for op in wl.ops():
        t0 = perf_counter()
        causes.append(op())
        t1 = perf_counter()
        latencies.append(t1 - t0)
        owed += t1 - t0
        while owed >= REF_EVERY_S:
            owed -= REF_EVERY_S
            samples.append(reference_loop())
        probing += perf_counter() - t1
    elapsed = perf_counter() - start - probing
    scale = host_scale(samples)
    tally.record([t * scale for t in latencies], causes)
    if raw is not None:
        raw.append(elapsed)
    return elapsed * scale


def run_passes(wl, seconds: float, tally: Tally, raw: list[float]) -> list[float]:
    """Passes until the next one would end after ``seconds``; at least one.

    Returns the scaled pass times; ``raw`` receives the unscaled ones.
    """
    times: list[float] = []
    start = perf_counter()
    while not times or perf_counter() - start + raw[-1] <= seconds:
        times.append(run_pass(wl, tally, raw))
    return times


def _probe_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    workloads = _import_workloads()
    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose one of {', '.join(workloads.NAMES)}")
    wl = workloads.setup(args.workload, args.seed)
    setup_raw = perf_counter() - t0
    setup_s = setup_raw * host_scale([reference_loop() for _ in range(SETUP_REF_SAMPLES)])
    if args.setup_only:
        print(repr(setup_s))
        return 0

    warm = Tally()
    run_pass(wl, warm)
    tally = Tally()
    if args.trace:
        from tracer import Tracer

        raw_plain: list[float] = []
        plain = run_passes(wl, args.seconds / 2, tally, raw_plain)
        tracer = Tracer()
        restore = tracer.install()
        raw_traced: list[float] = []
        try:
            before = tally.causes.copy()
            traced = run_passes(wl, args.seconds / 2, tally, raw_traced)
        finally:
            restore()
        mism = tally.causes.get(workloads.MISMATCH, 0) - before.get(workloads.MISMATCH, 0)
        values = tracer.metrics(len(traced), mism, tally.failed, tally.attempted)
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        metrics = {k: _metric(values[k], u) for k, u in PER_LAYER_UNITS.items()}
        passes = {"untraced": raw_plain, "traced": raw_traced}
    else:
        raw: list[float] = []
        times = run_passes(wl, args.seconds, tally, raw)
        setups = [setup_s] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        # every pass repeats the same operations: each one's median over the passes
        # damps the host's noise, and the lower median across operations is one
        # operation's latency, never the mean of a cheap and a dear one
        latencies = tally.op_latencies()
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        values = {
            "wall_s": statistics.median(times),
            "op_p50_ms": 1000 * statistics.median_low(latencies),
            "op_p90_ms": 1000 * deciles[8],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: _metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
        passes = {"timed": raw}

    correct = workloads.MISMATCH not in warm.causes and workloads.MISMATCH not in tally.causes
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "raw_pass_s": {k: [round(t, 4) for t in v] for k, v in passes.items()},
        "raw_setup_s": round(setup_raw, 4),
        "ops_per_pass": warm.attempted,
        "failures_by_cause": tally.causes,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_lines": _src_lines(),
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(
        json.dumps(
            {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
