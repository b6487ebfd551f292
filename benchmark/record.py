"""Record ``expected.json``: per-check point counts and result digests.

    python3 benchmark/record.py

Run it only on a commit whose outputs are known to be right: it refuses to
record when any non-conjecture point fails or a conjecture search differs from
its known outcome.  Digests of the seeded checks are recorded for program
seeds ``0 .. SEED_SPAN - 1``; every other digest must not depend on the seed,
which is checked by recording each workload at two seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from gate import check_digests, evaluate  # noqa: E402
from tracer import capture_searches  # noqa: E402
from workloads import SEED_SPAN, SEEDED_CHECKS, WORKLOADS, command_lines  # noqa: E402

import catdet.cli as cli  # noqa: E402
from catdet import registry  # noqa: E402

CONJECTURE_IDS = {c.id for c in registry.CHECKS.values() if c.conjecture}


def run(argvs: list[list[str]]):
    reports, codes = [], []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli.main(argv))
        reports.append(json.loads(buf.getvalue()))
    return reports, codes


def main() -> int:
    searches = capture_searches()
    expected: dict = {"seed_span": SEED_SPAN, "workloads": {}, "seeded": {}}
    seeded_argv = ["verify"] + [a for cid in SEEDED_CHECKS for a in ("--id", cid)]
    for check_id in SEEDED_CHECKS:
        expected["seeded"][check_id] = {"points": None, "sha256": []}
    for seed in range(SEED_SPAN):
        reports, codes = run([seeded_argv + ["--seed", str(seed)]])
        digests = check_digests(reports, CONJECTURE_IDS)
        if any(codes) or any(d["not_passing"] for d in digests.values()):
            print(f"seeded checks fail at seed {seed}; not recording", file=sys.stderr)
            return 1
        for check_id in SEEDED_CHECKS:
            entry = expected["seeded"][check_id]
            entry["points"] = digests[check_id]["points"]
            entry["sha256"].append(digests[check_id]["sha256"])

    for workload in WORKLOADS:
        per_seed = []
        for seed in (0, 1):
            searches.clear()
            reports, codes = run(command_lines(workload, seed))
            digests = check_digests(reports, CONJECTURE_IDS)
            if any(codes) or any(d["not_passing"] for d in digests.values()):
                print(f"{workload} fails at seed {seed}; not recording", file=sys.stderr)
                return 1
            per_seed.append((reports, codes, list(searches), digests))
        checks = {}
        for check_id, d in sorted(per_seed[0][3].items()):
            seeded = check_id in SEEDED_CHECKS
            if not seeded and d != per_seed[1][3][check_id]:
                print(f"{workload}: {check_id} depends on the seed", file=sys.stderr)
                return 1
            checks[check_id] = {"points": d["points"], "sha256": None if seeded else d["sha256"]}
        expected["workloads"][workload] = {"checks": checks}
        for seed, (reports, codes, found, _) in enumerate(per_seed):
            attempted, failed, errors = evaluate(workload, seed, reports, codes, found,
                                                 CONJECTURE_IDS, expected)
            if failed or errors:
                print(f"{workload} at seed {seed}: {errors}", file=sys.stderr)
                return 1
        print(f"{workload}: {attempted} points, {len(checks)} checks", file=sys.stderr)

    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
