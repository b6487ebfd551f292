"""Outside-in tracer: wraps the public entry points of each catdet module.

Nothing in the program changes.  After ``import catdet.cli`` the tracer
replaces every module binding of each wrapped function (``registry``,
``residues`` and ``orthopoly`` import ``det_bareiss`` by name, and
``QPoly.__rmul__`` aliases ``__mul__``) with a wrapper that records a span.

Spans (name, start, end, parent) are kept in memory in flat arrays and written
out when the run ends.  A layer's self time is its spans' durations minus the
part covered by their child spans.  The wrappers' own bookkeeping falls outside
the span it records, so it is charged to the caller's self time; the total
cost shows as the tracing overhead (traced minus untraced ``wall_s``).

Apart from ``QRat``, ``QPoly.__mul__``, ``registry.run_check`` and
``conjecture_search``, every hook tolerates a missing target, so a later change
that renames or removes such a function leaves that layer's counts at 0
instead of failing the run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import replace

CLOCK = time.perf_counter

# Checks whose per-check time is reported: the ten slowest at the seed commit.
SLOW_CHECKS = ("eq96", "c14", "eq92", "eq91", "eq99", "eq100", "eq63", "sec33det", "c12", "eq86")

BAREISS_RINGS = ("integer", "rational", "q-polynomial", "q-rational")

_RUN_CHECK = "registry.run_check/"
_CONJECTURE_SEARCH = "residues.conjecture_search/"


def catdet_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "catdet" or name.startswith("catdet."))]


def rebind(original, replacement) -> None:
    """Point every catdet module-level binding of ``original`` at ``replacement``."""
    for module in catdet_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def rebind_method(cls, original, replacement) -> None:
    """Replace every attribute of ``cls`` that is ``original`` (covers aliases)."""
    for name, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, name, replacement)


def capture_searches() -> list[dict]:
    """Rebind ``conjecture_search`` so that every report it returns is also kept."""
    from catdet import residues

    found: list[dict] = []
    search = residues.conjecture_search

    def recorded_search(*args, **kwargs):
        report = search(*args, **kwargs)
        found.append(report.to_json())
        return report

    rebind(search, recorded_search)
    return found


def public_functions(module) -> dict:
    """Functions a module defines itself (not imported), without a leading ``_``."""
    return {
        name: value for name, value in vars(module).items()
        if not name.startswith("_") and callable(value) and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    }


class Tracer:
    """Span recorder; ``wrap`` returns a span-recording version of a function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def name(self, text: str) -> int:
        nid = self._ids.get(text)
        if nid is None:
            nid = self._ids[text] = len(self.names)
            self.names.append(text)
        return nid

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(CLOCK())
        return idx

    def leave(self, idx: int) -> None:
        self.end[idx] = CLOCK()
        self.stack.pop()

    def wrap(self, span_name: str, fn):
        nid = self.name(span_name)
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return traced

    # -- analysis -----------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, inclusive seconds and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        own: Counter = Counter()
        names = self.names
        for i in range(n):
            name = names[self.name_id[i]]
            calls[name] += 1
            inclusive[name] += dur[i]
            own[name] += dur[i] - child[i]
        return calls, inclusive, own

    def nested_count(self, inner_prefix: str, outer: str) -> int:
        """Spans named ``inner_prefix*`` whose parent span is named ``outer``."""
        names, ids, parent = self.names, self.name_id, self.parent
        count = 0
        for i in range(len(ids)):
            p = parent[i]
            if p >= 0 and names[ids[i]].startswith(inner_prefix) and names[ids[p]] == outer:
                count += 1
        return count

    def top_level_conjecture_s(self) -> Counter:
        """Seconds in conjecture searches not run inside ``registry.run_check``."""
        out: Counter = Counter()
        names, ids, parent = self.names, self.name_id, self.parent
        for i in range(len(ids)):
            name = names[ids[i]]
            if name.startswith(_CONJECTURE_SEARCH):
                p = parent[i]
                if p < 0 or not names[ids[p]].startswith(_RUN_CHECK):
                    out[name[len(_CONJECTURE_SEARCH):]] += self.end[i] - self.start[i]
        return out

    def write(self, base: str, header: dict) -> None:
        """Write the spans: ``base.json`` (names, layout) and ``base.bin`` (arrays)."""
        meta = dict(header, names=self.names, count=len(self.start),
                    layout=["name_id:int32", "parent:int32", "start:float64", "end:float64"],
                    byteorder=sys.byteorder)
        with open(base + ".bin", "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(base + ".json", "w") as fh:
            json.dump(meta, fh)


class Layers:
    """Installs the tracer on every layer and turns its spans into metrics."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.caches: list = []
        self.qbin_cache: dict = {}

    def install(self) -> None:
        from catdet import cli, exact, families, linalg, orthopoly, qseries, registry, residues
        from catdet import sequences

        t = self.tracer
        counts = t.counts
        enter, leave = t.enter, t.leave

        def wrap_function(module, attr: str, span_name: str) -> None:
            original = getattr(module, attr, None)
            if original is not None:
                rebind(original, t.wrap(span_name, original))

        # scalar arithmetic
        QPoly, QRat = qseries.QPoly, qseries.QRat
        rebind_method(QRat, QRat.__init__, t.wrap("qseries.qrat_reduce", QRat.__init__))
        rebind_method(QPoly, QPoly.__mul__, t.wrap("qseries.qpoly_mul", QPoly.__mul__))
        if hasattr(QPoly, "exact_div"):
            rebind_method(QPoly, QPoly.exact_div,
                          t.wrap("qseries.qpoly_exact_div", QPoly.exact_div))
        kron = getattr(qseries, "_mul_kronecker", None)
        if kron is not None:
            def counted_kron(a, b):
                counts["qseries.qpoly_mul.kron_calls"] += 1
                return kron(a, b)
            rebind(kron, counted_kron)
        self.qbin_cache = getattr(qseries, "_QBIN_CACHE", {})
        q_binomial = getattr(qseries, "q_binomial", None)
        if q_binomial is not None:
            traced_qbin = t.wrap("qseries.q_binomial", q_binomial)
            cache = self.qbin_cache

            def q_binomial_hits(n, k):
                if (n, k) in cache:
                    counts["qseries.q_binomial.hits"] += 1
                return traced_qbin(n, k)
            rebind(q_binomial, q_binomial_hits)
        wrap_function(exact, "binomial", "exact.binomial")

        # determinant engines
        bareiss = getattr(linalg, "det_bareiss", None)
        if bareiss is not None:
            def det_bareiss(m, *args, **kwargs):
                name = "linalg.det_bareiss." + m.ring.name
                counts[name + ".dim_sum"] += m.nrows
                idx = enter(t.name(name))
                try:
                    return bareiss(m, *args, **kwargs)
                finally:
                    leave(idx)
            rebind(bareiss, det_bareiss)
        for attr in ("det_condensation", "det_cofactor", "inverse", "rank"):
            wrap_function(linalg, attr, "linalg." + attr)

        # families, sequences, orthogonal polynomials
        for name, fn in public_functions(families).items():
            builds = name.startswith("fam_") or getattr(fn, "__annotations__", {}).get(
                "return") in ("Matrix", linalg.Matrix)
            rebind(fn, t.wrap("families.build" if builds else "families.closed_form", fn))
        for fn in public_functions(sequences).values():
            if hasattr(fn, "cache_info"):
                self.caches.append(fn)
            rebind(fn, t.wrap("sequences", fn))
        for fn in public_functions(orthopoly).values():
            rebind(fn, t.wrap("orthopoly", fn))

        # residues
        wrap_function(residues, "lifted_det", "residues.lifted_det")
        search = getattr(residues, "conjecture_search", None)
        if search is not None:
            def conjecture_search(conjecture_id, *args, **kwargs):
                idx = enter(t.name(_CONJECTURE_SEARCH + conjecture_id))
                try:
                    report = search(conjecture_id, *args, **kwargs)
                finally:
                    leave(idx)
                counts["residues.conjecture_search.points"] += report.checked
                return report
            rebind(search, conjecture_search)

        # registry: per-point runs (named by check id) and grid construction
        run_check = registry.run_check

        def traced_run_check(check_id, **params):
            idx = enter(t.name(_RUN_CHECK + check_id))
            try:
                return run_check(check_id, **params)
            finally:
                leave(idx)
        rebind(run_check, traced_run_check)
        for check_id, check in list(registry.CHECKS.items()):
            registry.CHECKS[check_id] = replace(check, grid=t.wrap("registry.grid", check.grid))

        # front end
        wrap_function(cli, "main", "cli.main")
        wrap_function(cli, "_emit", "cli.serialize")

    def metrics(self, report_bytes: int) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        t = self.tracer
        calls, inclusive, own = t.totals()
        counts = t.counts
        out: dict = {}

        def layer(name: str) -> None:
            out[name + ".calls"] = (calls[name], "count")
            out[name + ".self_s"] = (own[name], "s")

        layer("qseries.qrat_reduce")
        layer("qseries.qpoly_mul")
        out["qseries.qpoly_mul.kron_calls"] = (counts["qseries.qpoly_mul.kron_calls"], "count")
        layer("qseries.qpoly_exact_div")
        layer("qseries.q_binomial")
        qbin_calls = calls["qseries.q_binomial"]
        out["qseries.q_binomial.cache_entries"] = (len(self.qbin_cache), "count")
        out["qseries.q_binomial.hit_ratio"] = (
            counts["qseries.q_binomial.hits"] / qbin_calls if qbin_calls else 0.0, "ratio")
        for ring in BAREISS_RINGS:
            name = "linalg.det_bareiss." + ring
            layer(name)
            out[name + ".dim_sum"] = (counts[name + ".dim_sum"], "rows")
        layer("linalg.det_condensation")
        out["linalg.det_condensation.fallbacks"] = (
            t.nested_count("linalg.det_bareiss.", "linalg.det_condensation"), "count")
        for name in ("linalg.det_cofactor", "linalg.inverse", "linalg.rank",
                     "residues.lifted_det"):
            layer(name)
        out["residues.conjecture_search.points"] = (
            counts["residues.conjecture_search.points"], "count")
        out["residues.conjecture_search.self_s"] = (
            sum(v for k, v in own.items() if k.startswith(_CONJECTURE_SEARCH)), "s")
        layer("exact.binomial")
        layer("families.build")
        layer("families.closed_form")
        layer("sequences")
        hits = sum(fn.cache_info().hits for fn in self.caches)
        misses = sum(fn.cache_info().misses for fn in self.caches)
        out["sequences.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                            "ratio")
        layer("orthopoly")
        run_check_names = [k for k in calls if k.startswith(_RUN_CHECK)]
        out["registry.run_check.self_s"] = (sum(own[k] for k in run_check_names), "s")
        out["registry.grid_s"] = (inclusive["registry.grid"], "s")
        out["registry.points"] = (sum(calls[k] for k in run_check_names), "count")
        top_searches = t.top_level_conjecture_s()
        for check_id in SLOW_CHECKS:
            out[f"registry.check.{check_id}.s"] = (
                inclusive[_RUN_CHECK + check_id] + top_searches[check_id], "s")
        out["cli.serialize_s"] = (inclusive["cli.serialize"], "s")
        out["cli.report_bytes"] = (report_bytes, "B")
        out["trace.spans"] = (len(t.start), "count")
        return out
