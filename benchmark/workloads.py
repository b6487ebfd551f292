"""The benchmark's workloads: which CLI calls each one makes, and what they must produce.

Each workload is a fixed list of ``catdet`` command lines, run in order in one
fresh interpreter (closed loop, one client, ``--jobs 1``).  Why each workload
was chosen is recorded in ``BENCHMARK.json`` and ``README.md``.  The seed given to
the benchmark reaches the program only as ``--seed`` on these command lines.

The expected outcomes of the conjecture searches are the known ones: ``c12``,
``c13b`` and ``c14`` are verified over their stated range and ``c13a`` has its
counterexample at ``n = 4, k = 6``.  Per-check point counts and result digests
live in ``expected.json`` (written by ``record.py``).
"""

from __future__ import annotations

# Checks whose grid points carry the seed; their digests are recorded per seed.
SEEDED_CHECKS = ("eq63", "eq64", "thm5r", "engines")

# Digests are recorded for program seeds 0 .. SEED_SPAN - 1; ``run.py`` draws
# each pass's program seed from that range.
SEED_SPAN = 256


def _verify(*ids: str, **grid: int) -> list[str]:
    argv = ["verify"]
    for check_id in ids:
        argv += ["--id", check_id]
    for flag, value in grid.items():
        argv += ["--" + flag.replace("_", "-"), str(value)]
    return argv


def _verified(conjecture: str, grid: dict, checked: int) -> dict:
    return {"conjecture": conjecture, "status": "verified-up-to", "grid": grid,
            "checked": checked, "counterexample": None}


WORKLOADS: dict[str, dict] = {
    "suite_full": {
        "argv": [["suite", "--level", "full"]],
        "points": 8468,
        "conjectures": [
            _verified("c12", {"size": 32}, 1),
            {"conjecture": "c13a", "status": "counterexample", "grid": {"n": 32, "k": 6},
             "checked": 24,
             "counterexample": {"params": {"n": 4, "k": 6}, "lhs": "1", "rhs": "-1"}},
            _verified("c13b", {"n": 16, "m": 4}, 64),
            _verified("c14", {"n": 81}, 82),
        ],
    },
    "int_deep": {
        "argv": [
            _verify("eq1", "eq1b", n_max=80),
            ["conjecture", "--id", "c14", "--n-max", "100"],
        ],
        "points": 263,
        "conjectures": [_verified("c14", {"n": 100}, 101)],
    },
    "q_field": {
        "argv": [_verify("eq96", "eq92", "eq99", "eq100", "sec33det", "eq63", "remarkdet")],
        "points": 348,
        "conjectures": [],
    },
    "q_ring": {
        "argv": [
            _verify("eq86", n_max=10, k_max=6),
            _verify("eq83", "eq84", n_max=12),
            _verify("eq87", n_max=12, k_max=6),
            _verify("eq91", "eq89"),
        ],
        "points": 310,
        "conjectures": [],
    },
}


def command_lines(workload: str, program_seed: int) -> list[list[str]]:
    """The workload's CLI argument lists, each with the program seed appended."""
    return [argv + ["--seed", str(program_seed)] for argv in WORKLOADS[workload]["argv"]]
