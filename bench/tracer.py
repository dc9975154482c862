"""Per-layer counters and spans, taken from outside the program.

``Tracer.install()`` replaces public functions of the trisect modules with
wrappers and returns a function that puts the originals back.  A name bound
by a caller at import time is replaced where that caller looks it up (for
instance ``trisect.bracket.contract_network``).  ``Cyc`` arithmetic is only
counted; the layer entry points get spans.  Spans are folded into per-name
totals as they close (busy time, self time, calls) instead of being stored
one by one, because the diagram lookups alone open millions of them.
A span nested in a span of the same name adds to the call count but not to
the time, so recursive and mutually calling lookups are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

import trisect.bracket
import trisect.hopf
import trisect.labelcount
import trisect.moves
from trisect.diagram import TrisectionDiagram, standard_s4
from trisect.errors import ResourceExceeded
from trisect.hopf import HopfAlgebra
from trisect.scalars import Cyc


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        # open spans, innermost last: [name, seconds covered by child spans]
        self.stack: list[list] = []
        self._s4 = standard_s4()

    # -- span and counter wrappers --------------------------------------------
    def _enter(self, name: str) -> list | None:
        self.calls[name] += 1
        if any(frame[0] == name for frame in self.stack):
            return None
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list, elapsed: float) -> None:
        self.stack.pop()
        name = frame[0]
        self.busy[name] += elapsed
        self.self_time[name] += elapsed - frame[1]
        if self.stack:
            self.stack[-1][1] += elapsed

    def span(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(name, fn)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = self._enter(name)
            if frame is None:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(frame, perf_counter() - t0)

        return wrapped

    def _generator_span(self, name: str, fn):
        """Time each resumption of the generator; the call counts once."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.calls[name] += 1
            gen = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                self.stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._leave(frame, perf_counter() - t0)
                self.calls[name + ".items"] += 1
                yield item

        return wrapped

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- layer-specific wrappers ----------------------------------------------
    def _pair(self, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapped(a, b):
            if a.level != (b.level if isinstance(b, Cyc) else 1):
                calls["scalars.mixed_level_ops"] += 1
            return fn(a, b)

        return wrapped

    def _contract(self, fn):
        inner = self.span("contraction", fn)

        @functools.wraps(fn)
        def wrapped(nodes, dims, *args, **kwargs):
            self.calls["contraction.nodes_in"] += len(nodes)
            self.calls["contraction.nnz_in"] += sum(len(n.data) for n in nodes)
            if any(frame[0] == "bracket.rep" for frame in self.stack):
                self.calls["bracket.rep_labellings"] += 1
            try:
                return inner(nodes, dims, *args, **kwargs)
            except ResourceExceeded:
                self.calls["contraction.cap_exceeded"] += 1
                raise

        return wrapped

    def _bracket(self, fn):
        """Split bracket calls into S4 normalizations, rep-backend calls and the rest."""
        spans = {key: self.span(key, fn) for key in ("bracket", "bracket.s4", "bracket.rep")}

        @functools.wraps(fn)
        def wrapped(d, cfg):
            if cfg.evaluator == "rep":
                key = "bracket.rep"
            elif d == self._s4:
                key = "bracket.s4"
            else:
                key = "bracket"
            return spans[key](d, cfg)

        return wrapped

    # -- patching ---------------------------------------------------------------
    def _targets(self):
        """(owner, attribute, wrapper factory) for every replaced name."""
        tb, th, tl, tm = trisect.bracket, trisect.hopf, trisect.labelcount, trisect.moves
        span, count = self.span, self.count
        return [
            (Cyc, "__mul__", lambda f: count("scalars.mul", f)),
            (Cyc, "__rmul__", lambda f: count("scalars.mul", f)),
            (Cyc, "__add__", lambda f: count("scalars.add", f)),
            (Cyc, "__radd__", lambda f: count("scalars.add", f)),
            (Cyc, "__eq__", lambda f: count("scalars.eq", f)),
            (Cyc, "inverse", lambda f: count("scalars.inverse", f)),
            (Cyc, "_pair", self._pair),
            (tb, "contract_network", self._contract),
            (tb, "trisection_bracket", self._bracket),
            (tb, "validate", lambda f: span("diagram.validate", f)),
            (tl, "validate_embedded", lambda f: span("diagram.validate", f)),
            (TrisectionDiagram, "curve", lambda f: span("diagram.lookup", f)),
            (TrisectionDiagram, "crossing", lambda f: span("diagram.lookup", f)),
            (TrisectionDiagram, "end_on", lambda f: span("diagram.lookup", f)),
            (th, "check_hopf_axioms", lambda f: span("hopf.axioms", f)),
            (th, "check_triplet", lambda f: span("hopf.triplet", f)),
            (th, "check_integral", lambda f: span("hopf.integral", f)),
            (HopfAlgebra, "counit_of", lambda f: count("hopf.counit", f)),
            (HopfAlgebra, "product", lambda f: count("hopf.product", f)),
            (HopfAlgebra, "coproduct", lambda f: count("hopf.coproduct", f)),
            (tl, "iter_curve_labellings", lambda f: span("labelcount.dfs", f)),
            (tl, "red_product", lambda f: count("labelcount.red_product", f)),
            (tl, "iter_region_labellings", lambda f: span("labelcount.region", f)),
            (tl, "averaged_by_brute_force", lambda f: span("labelcount.brute", f)),
            (tm, "random_move", lambda f: span("moves.random_move", f)),
            (tm, "applicable_triangles", lambda f: span("moves.triangle_search", f)),
            (tm, "applicable_deletions", lambda f: span("moves.deletion_search", f)),
        ]

    def install(self):
        """Wrap every target; the returned function restores the originals."""
        saved = []
        for owner, attr, factory in self._targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))

        def restore():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return restore

    # -- the reported metrics -----------------------------------------------------
    def metrics(self, passes: int, mismatches: int, failed: int, attempted: int) -> dict:
        """Per-pass layer metrics: counts and seconds divided by the traced passes."""
        c, busy, own = self.calls, self.busy, self.self_time

        def per(x):
            return x / passes

        bracket_busy = busy["bracket"] + busy["bracket.s4"] + busy["bracket.rep"]
        bracket_self = own["bracket"] + own["bracket.s4"] + own["bracket.rep"]
        red = c["labelcount.red_product"]
        return {
            "scalars.mul_calls": per(c["scalars.mul"]),
            "scalars.add_calls": per(c["scalars.add"]),
            "scalars.eq_calls": per(c["scalars.eq"]),
            "scalars.inverse_calls": per(c["scalars.inverse"]),
            "scalars.mixed_level_ops": per(c["scalars.mixed_level_ops"]),
            "contraction.calls": per(c["contraction"]),
            "contraction.busy_s": per(busy["contraction"]),
            "contraction.self_s": per(own["contraction"]),
            "contraction.nodes_in": per(c["contraction.nodes_in"]),
            "contraction.nnz_in": per(c["contraction.nnz_in"]),
            "contraction.cap_exceeded": per(c["contraction.cap_exceeded"]),
            "bracket.calls": per(c["bracket"] + c["bracket.s4"] + c["bracket.rep"]),
            "bracket.self_s": per(bracket_self),
            "bracket.s4_calls": per(c["bracket.s4"]),
            "bracket.s4_share": busy["bracket.s4"] / bracket_busy if bracket_busy else 0.0,
            "bracket.rep_s": per(busy["bracket.rep"]),
            "bracket.rep_labellings": per(c["bracket.rep_labellings"]),
            "bracket.mismatch_ops": per(mismatches),
            "hopf.axioms_s": per(busy["hopf.axioms"]),
            "hopf.triplet_s": per(busy["hopf.triplet"]),
            "hopf.integral_s": per(busy["hopf.integral"]),
            "hopf.counit_calls": per(c["hopf.counit"]),
            "hopf.product_calls": per(c["hopf.product"]),
            "hopf.coproduct_calls": per(c["hopf.coproduct"]),
            "labelcount.dfs_s": per(busy["labelcount.dfs"]),
            "labelcount.red_product_calls": per(red),
            "labelcount.labellings": per(c["labelcount.dfs.items"]),
            "labelcount.useful_ratio": c["labelcount.dfs.items"] / red if red else 0.0,
            "labelcount.region_s": per(busy["labelcount.region"]),
            "labelcount.brute_s": per(busy["labelcount.brute"]),
            "moves.random_move_calls": per(c["moves.random_move"]),
            "moves.random_move_s": per(busy["moves.random_move"]),
            "moves.triangle_search_s": per(busy["moves.triangle_search"]),
            "moves.deletion_search_s": per(busy["moves.deletion_search"]),
            "diagram.validate_s": per(busy["diagram.validate"]),
            "diagram.lookup_calls": per(c["diagram.lookup"]),
            "diagram.lookup_s": per(busy["diagram.lookup"]),
            "fail_ratio": failed / attempted,
        }
