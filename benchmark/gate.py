"""Correctness gate for one pass of a workload.

A pass is correct when:

* the number of points attempted equals the workload's expected count;
* every non-conjecture point passes;
* each conjecture search has its known outcome (range searched, points
  checked, counterexample or none);
* for every non-conjecture check, the SHA-256 over ``(id, params, status,
  lhs, rhs)`` of its results equals the digest recorded in ``expected.json``
  (per seed for the seeded checks).

Every mismatch counts its points as failed, so a "speed-up" that shrinks a
grid or passes vacuously shows in ``failed``.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from workloads import SEEDED_CHECKS, WORKLOADS


def check_digests(reports: list[dict], conjecture_ids) -> dict[str, dict]:
    """Per non-conjecture check id: result count, digest and non-passing count."""
    hashes: dict = {}
    points: Counter = Counter()
    not_passing: Counter = Counter()
    for report in reports:
        for r in report.get("results", []):
            check_id = r["id"]
            if check_id in conjecture_ids:
                continue
            line = json.dumps([check_id, r["params"], r["status"], r["lhs"], r["rhs"]],
                              sort_keys=True, separators=(",", ":"))
            hashes.setdefault(check_id, hashlib.sha256()).update(line.encode() + b"\n")
            points[check_id] += 1
            if r["status"] != "pass":
                not_passing[check_id] += 1
    return {
        check_id: {"points": points[check_id], "sha256": h.hexdigest(),
                   "not_passing": not_passing[check_id]}
        for check_id, h in hashes.items()
    }


def attempted_points(reports: list[dict]) -> int:
    """Grid points run: suite/verify results plus points checked by searches."""
    return sum(len(r.get("results", [])) + sum(c["checked"] for c in r.get("reports", []))
               for r in reports)


def expected_digest(expected: dict, workload: str, check_id: str, program_seed: int):
    if check_id in SEEDED_CHECKS:
        return expected["seeded"][check_id]["sha256"][program_seed]
    return expected["workloads"][workload]["checks"][check_id]["sha256"]


def evaluate(workload: str, program_seed: int, reports: list[dict], exit_codes: list[int],
             searches: list[dict], conjecture_ids, expected: dict) -> tuple[int, int, list[str]]:
    """Return ``(attempted, failed, errors)`` for one pass."""
    spec = WORKLOADS[workload]
    errors: list[str] = []
    failed = 0
    attempted = attempted_points(reports)
    if attempted != spec["points"]:
        errors.append(f"attempted {attempted} points, expected {spec['points']}")
        failed += abs(attempted - spec["points"])
    if any(exit_codes):
        errors.append(f"exit codes {exit_codes}")

    got = check_digests(reports, conjecture_ids)
    want = expected["workloads"][workload]["checks"]
    for check_id in sorted(set(got) | set(want)):
        g, w = got.get(check_id), want.get(check_id)
        if w is None:
            errors.append(f"{check_id}: unexpected check")
            failed += g["points"]
        elif g is None:
            errors.append(f"{check_id}: missing")
            failed += w["points"]
        elif g["points"] != w["points"] or g["sha256"] != expected_digest(
                expected, workload, check_id, program_seed):
            errors.append(f"{check_id}: {g['points']} points, digest {g['sha256'][:12]} "
                          f"does not match the recorded one")
            failed += max(g["points"], w["points"])
        elif g["not_passing"]:
            errors.append(f"{check_id}: {g['not_passing']} points do not pass")
            failed += g["not_passing"]

    in_suite = {r["id"] for report in reports for r in report.get("results", [])}
    seen = {s["conjecture"]: s for s in searches}
    for want_search in spec["conjectures"]:
        cid = want_search["conjecture"]
        if seen.get(cid) != want_search:
            errors.append(f"{cid}: search outcome {seen.get(cid)} != {want_search}")
            failed += 1 if cid in in_suite else want_search["checked"]
    return attempted, failed, errors
