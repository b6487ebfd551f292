"""catdet benchmark: end-to-end metrics, a correctness gate, and a per-layer trace.

    python3 benchmark/run.py --workload q_field --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; nothing needs building or installing.
Each pass of the workload runs in a fresh interpreter (``child.py``), one pass
after another, so the program's process-wide caches start empty every time,
as they do for each CLI call.  Passes repeat until ``--seconds`` is used up
(at least ``MIN_PASSES``) and the medians over passes are reported.

A shared machine's speed swings by up to 1.8x in phases of a fraction of a
second to minutes, longer than a run.  So every pass times a fixed probe
(``child.probe``) between grid points, at most every 20 ms, and around each
set-up sample, and the end-to-end times are scaled to the speed at which the
probe takes ``PROBE_REF_S``: seconds of a machine that nothing else slows.
The raw times are in the details line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including the
tracing overhead.  Every pass is checked for exact correctness (``gate.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, per-pass values, errors).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SEED_SPAN, WORKLOADS  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 15
# Set-up samples taken after each timed pass, so that they spread over the run.
SETUP_PER_PASS = 3
# Everything must end within this many seconds of the start.
BUDGET_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# ``probe()`` time at the reference speed: about its time on a 2-vCPU Intel Xeon
# virtual machine, Python 3.11.7, while no other tenant slowed it.
PROBE_REF_S = 0.001


class BenchError(RuntimeError):
    pass


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, program_seeds: list[int]) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "seed": seed,
        "program_seeds": program_seeds,
    }


def child(deadline: float, *args: str) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        k = max(math.ceil(pct / 100 * n) - 1, 0)
        if n - 1 - k >= TAIL_MIN_BEYOND:
            return pct, ordered[k]
    return 0.0, ordered[0]


def slowdown(probes: list[float]) -> float:
    """How many times slower than the reference the machine ran, from probe times."""
    return statistics.fmean(probes) / PROBE_REF_S


def at_reference_speed(p: dict) -> tuple[float, list[float]]:
    """A pass's ``wall_s`` and per-point times, scaled to the reference speed.

    Each point's time is divided by the slowdown measured by the probes just
    before and just after it; the time outside the points by the slowdown of
    the whole pass.
    """
    probes, at = p["probe_s"], p["probe_at"]
    points = []
    for j, t in enumerate(p["point_s"]):
        k = bisect.bisect_right(at, j) - 1
        points.append(t / slowdown([probes[k], probes[min(k + 1, len(probes) - 1)]]))
    outside = (p["wall_s"] - math.fsum(p["point_s"])) / slowdown(probes)
    return math.fsum(points) + outside, points


def run_passes(seconds: float, deadline: float, round_args, min_rounds: int) -> list[list[dict]]:
    """Run rounds of passes for ``seconds``: one child per entry of ``round_args()``."""
    start = time.monotonic()
    rounds: list[list[dict]] = []
    durations: list[float] = []
    while len(rounds) < min_rounds or (
            time.monotonic() - start + statistics.median(durations) <= seconds):
        if durations and time.monotonic() + max(durations) > deadline:
            break
        t0 = time.monotonic()
        rounds.append([child(deadline, *args) for args in round_args()])
        durations.append(time.monotonic() - t0)
    return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps a running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "catdet" / "__init__.py").is_file():
        print(f"no catdet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Each round draws its program seed from the benchmark seed.  The seeded
    # checks' cost depends on the program seed (on q_field, by about 10%), so
    # a run's median spans several seeds instead of resting on one.
    rng = random.Random(args.seed)
    program_seeds: list[int] = []
    spans = str(ROOT / ".bench-out" / f"spans-{args.workload}")
    detail: dict = {"workload": args.workload, "env": environment(args.seed, program_seeds)}

    def round_args() -> list[list[str]]:
        program_seeds.append(rng.randrange(SEED_SPAN))
        common = ["--workload", args.workload, "--seed", str(program_seeds[-1])]
        if args.trace:
            return [common + ["--trace", "0"], common + ["--trace", "1", "--spans", spans]]
        return [common + ["--trace", "0"]] + [["--setup-only"]] * SETUP_PER_PASS

    try:
        child(deadline, "--setup-only")  # compiles the bytecode; not measured
        rounds = run_passes(args.seconds, deadline, round_args, 1 if args.trace else MIN_PASSES)
        samples = [p for r in rounds for p in r if "wall_s" not in p]
        rounds = [[p for p in r if "wall_s" in p] for r in rounds]
        passes = [p for r in rounds for p in r]
        while len(samples) < SETUP_SAMPLES:
            samples.append(child(deadline, "--setup-only"))
        setup = [p["setup_s"] / slowdown(p["probe_s"]) for p in samples]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = sorted({e for p in passes for e in p["errors"]})
    detail.update(passes=len(rounds), setup_s=setup, fail_ratio=failed / attempted,
                  errors=errors)
    median = statistics.median
    if args.trace:
        plain = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        layers = {name: (median(t["layers"][name][0] for t in traced), unit)
                  for name, (_, unit) in traced[0]["layers"].items()}
        untraced_wall = median(p["wall_s"] for p in plain)
        traced_wall = median(t["wall_s"] for t in traced)
        layers["trace.wall_s"] = (traced_wall, "s")
        layers["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        detail.update(untraced_wall_s=[p["wall_s"] for p in plain],
                      traced_wall_s=[t["wall_s"] for t in traced], spans=spans)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        scaled = [at_reference_speed(p) for p in passes]
        tails = [tail(points) for _, points in scaled]
        detail.update(
            slowdown=[slowdown(p["probe_s"]) for p in passes],
            raw_wall_s=[p["wall_s"] for p in passes],
            wall_s=[w for w, _ in scaled],
            point_tail_percentile=tails[0][0],
            point_tail_samples=len(passes[0]["point_s"]),
            point_tail_ms=[v * 1000 for _, v in tails],
            peak_rss_mb=[p["peak_rss_mb"] for p in passes],
        )
        metrics = {
            "wall_s": {"value": median(detail["wall_s"]), "unit": "s"},
            "points_per_s": {"value": median(p["attempted"] / w for p, (w, _) in
                                             zip(passes, scaled)), "unit": "1/s"},
            "point_tail_ms": {"value": median(detail["point_tail_ms"]), "unit": "ms"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
