"""One pass of one workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON line.  ``setup_s`` is the time to import
``catdet.cli``, which registers every check; ``wall_s`` is the time spent in
the workload's ``catdet.cli.main`` calls after that, less the speed probes run
between grid points.  Times are raw seconds; ``run.py`` scales them with the
probe times (``probe_s``).  Reports are captured in memory and checked by
``gate.py`` after the clock stops.

    python3 benchmark/child.py --setup-only
    python3 benchmark/child.py --workload q_ring --seed 3 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

CLOCK = time.perf_counter
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


# A speed probe runs before a grid point once this long has passed since the last.
PROBE_EVERY_S = 0.02
# Probes timed before and after the import of a set-up sample.
SETUP_PROBES = 3
_PROBE_A = [3**k + k for k in range(24)]
_PROBE_B = [5**k - k for k in range(24)]


def probe() -> int:
    """Fixed interpreter and big-integer work: products of integer
    polynomials and gcds, like the program's own arithmetic, but touching none
    of its state.  Its time tracks how fast the machine runs at the moment."""
    a, b = _PROBE_A, _PROBE_B
    g = 0
    for _ in range(16):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        for c in out:
            g = math.gcd(g, c + g)
    return g


def timed_probe() -> float:
    t0 = CLOCK()
    probe()
    return CLOCK() - t0


class PointClock:
    """Times each grid point from outside: ``registry.run_check`` calls, and the
    per-point calls of a conjecture search not already inside one.  Between
    points, at most every ``PROBE_EVERY_S``, it times ``probe()``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.probes: list[float] = []
        self.probe_at: list[int] = []
        self.depth = 0
        self.next_probe = 0.0

    def wrap(self, fn):
        samples = self.samples

        def timed(*args, **kwargs):
            if not self.depth and CLOCK() >= self.next_probe:
                self.probes.append(timed_probe())
                self.probe_at.append(len(samples))
                self.next_probe = CLOCK() + PROBE_EVERY_S
            self.depth += 1
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = CLOCK() - t0
                self.depth -= 1
                if not self.depth:
                    samples.append(elapsed)

        return timed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0, help="program seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the trace spans to PATH.{json,bin}")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    probes = [timed_probe() for _ in range(SETUP_PROBES)] if args.setup_only else []
    t0 = CLOCK()
    sys.path.insert(0, str(SRC))
    import catdet.cli as cli
    setup_s = CLOCK() - t0
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"catdet imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    if args.setup_only:
        probes += [timed_probe() for _ in range(SETUP_PROBES)]
        print(json.dumps({"setup_s": setup_s, "probe_s": probes}))
        return 0

    sys.path.insert(0, str(HERE))
    from gate import evaluate
    from tracer import Layers, Tracer, capture_searches, rebind
    from workloads import command_lines

    from catdet import registry, residues

    searches = capture_searches()

    clock = layers = None
    if args.trace:
        layers = Layers(Tracer())
        layers.install()
    else:
        clock = PointClock()
        rebind(registry.run_check, clock.wrap(registry.run_check))
        points = getattr(residues, "_CONJECTURE_POINTS", {})
        for cid, fn in list(points.items()):
            points[cid] = clock.wrap(fn)

    outputs: list[str] = []
    exit_codes: list[int] = []
    wall_s = 0.0
    for argv in command_lines(args.workload, args.seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = CLOCK()
            exit_codes.append(cli.main(argv))
            wall_s += CLOCK() - start
        outputs.append(buf.getvalue())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = json.loads((HERE / "expected.json").read_text())
    reports = [json.loads(text) for text in outputs]
    conjecture_ids = {c.id for c in registry.CHECKS.values() if c.conjecture}
    attempted, failed, errors = evaluate(args.workload, args.seed, reports, exit_codes,
                                         searches, conjecture_ids, expected)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "peak_rss_mb": rss_mb,
        "report_bytes": sum(len(text.encode()) for text in outputs),
    }
    if clock is not None:
        result["wall_s"] -= math.fsum(clock.probes)
        result.update(point_s=clock.samples, probe_s=clock.probes, probe_at=clock.probe_at)
    if layers is not None:
        result["layers"] = layers.metrics(result["report_bytes"])
        if args.spans:
            os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
            layers.tracer.write(args.spans, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
