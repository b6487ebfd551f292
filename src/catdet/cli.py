"""Command line front end.

Subcommands: ``list`` (the check index), ``verify`` (one check over a grid),
``suite`` (every registered check), ``conjecture`` (counterexample searches),
``bench`` (determinant engine timings).  Reports are emitted as JSON or
markdown with identical pass/fail content; all timing data lives in a
separate ``timings`` object so that reports from identical configurations
are byte-identical apart from it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from multiprocessing import Pool

import catdet.residues  # noqa: F401  (registers the modular checks)
from catdet import registry
from catdet.registry import Bounds, CheckResult, check_index
from catdet.residues import CONJECTURE_IDS, CONJECTURES, conjecture_search


def _bounds_from_args(args, fast: bool = False) -> Bounds:
    return Bounds(
        n_max=args.n_max,
        k_max=args.k_max,
        m_max=args.m_max,
        r_max=args.r,
        x_max=args.x,
        cases=args.cases,
        seed=args.seed,
        fast=fast,
    )


def _config_json(args, command: str) -> dict:
    return {
        "command": command,
        "ids": args.id,
        "n_max": args.n_max,
        "k_max": args.k_max,
        "m_max": args.m_max,
        "r": args.r,
        "x": args.x,
        "mod": args.mod,
        "cases": args.cases,
        "seed": args.seed,
        "jobs": args.jobs,
        "fail_fast": args.fail_fast,
        "format": args.format,
    }


def _pool_point(task: tuple[str, dict]) -> CheckResult:
    check_id, params = task
    return registry.run_check(check_id, **params)


def _run_tasks(tasks: list[tuple[str, dict]], jobs: int, fail_fast: bool
               ) -> tuple[list[CheckResult], dict[str, float]]:
    results: list[CheckResult] = []
    per_check: dict[str, float] = {}
    if jobs > 1 and not fail_fast and len(tasks) > 1:
        with Pool(jobs) as pool:
            results = pool.map(_pool_point, tasks)
    else:
        for task in tasks:
            res = _pool_point(task)
            results.append(res)
            if fail_fast and not res.passed and not registry.CHECKS[task[0]].conjecture:
                break
    for res in results:
        per_check[res.check_id] = per_check.get(res.check_id, 0.0) + res.elapsed
    return results, per_check


def _report(results: list[CheckResult], config: dict, per_check: dict[str, float],
            total: float) -> dict:
    passed = sum(1 for r in results if r.passed)
    return {
        "config": config,
        "results": [r.to_json() for r in results],
        "summary": {"pass": passed, "fail": len(results) - passed},
        "timings": {
            "total_seconds": round(total, 6),
            "per_check_seconds": {k: round(v, 6) for k, v in sorted(per_check.items())},
        },
    }


def _render_markdown(report: dict) -> str:
    lines = ["# catdet report", ""]
    lines.append("| id | params | status | lhs | rhs |")
    lines.append("|---|---|---|---|---|")
    for r in report["results"]:
        params = ", ".join(f"{k}={v}" for k, v in r["params"].items())
        lhs = r["lhs"].replace("|", "\\|")
        rhs = r["rhs"].replace("|", "\\|")
        if len(lhs) > 60:
            lhs = lhs[:57] + "..."
        if len(rhs) > 60:
            rhs = rhs[:57] + "..."
        lines.append(f"| {r['id']} | {params} | {r['status']} | {lhs} | {rhs} |")
    s = report["summary"]
    lines.append("")
    lines.append(f"**pass: {s['pass']}, fail: {s['fail']}**")
    lines.append("")
    return "\n".join(lines)


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "markdown":
        text = _render_markdown(payload) if "results" in payload else (
            "```json\n" + json.dumps(payload, indent=2, sort_keys=True) + "\n```\n"
        )
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(text, out)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _exit_code(results: list[CheckResult]) -> int:
    for r in results:
        if not r.passed and not registry.CHECKS[r.check_id].conjecture:
            return 1
    return 0


def _cmd_list(args) -> int:
    index = check_index()
    if args.format == "json":
        _emit({"checks": index}, "json", args.out)
    else:
        lines = ["| id | kind | anchor | params |", "|---|---|---|---|"]
        for entry in index:
            tag = " (conjecture)" if entry["conjecture"] and entry["kind"] != "conjecture" else ""
            lines.append(
                f"| {entry['id']} | {entry['kind']}{tag} | {entry['anchor']} | "
                f"{', '.join(entry['params'])} |"
            )
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _run_checks(args, command: str, ids: list[str], bounds: Bounds) -> int:
    """Run every grid point of ``ids``; an unknown id or an empty grid exits 2."""
    t0 = time.perf_counter()
    tasks: list[tuple[str, dict]] = []
    for check_id in ids:
        check = registry.CHECKS.get(check_id)
        if check is None:
            print(f"unknown check id: {check_id!r}", file=sys.stderr)
            return 2
        points = check.grid(bounds)
        if not points:
            print(f"empty grid for {check_id}", file=sys.stderr)
            return 2
        tasks += [(check_id, point) for point in points]
    results, per_check = _run_tasks(tasks, args.jobs, args.fail_fast)
    report = _report(results, _config_json(args, command), per_check,
                     time.perf_counter() - t0)
    _emit(report, args.format, args.out)
    return _exit_code(results)


def _cmd_verify(args) -> int:
    if not args.id:
        print("verify requires at least one --id", file=sys.stderr)
        return 2
    return _run_checks(args, "verify", args.id, _bounds_from_args(args))


def _cmd_suite(args) -> int:
    bounds = _bounds_from_args(args, fast=(args.level == "fast"))
    return _run_checks(args, f"suite:{args.level}", args.id or sorted(registry.CHECKS), bounds)


def _cmd_conjecture(args) -> int:
    ids = args.id or list(CONJECTURE_IDS)
    if args.mod is not None:
        ids = [c for c in ids if c in CONJECTURES and CONJECTURES[c].modulus == args.mod]
    bounds = _bounds_from_args(args)
    reports = []
    timings = {}
    for cid in ids:
        if cid not in CONJECTURE_IDS:
            print(f"unknown conjecture id: {cid!r}", file=sys.stderr)
            return 2
        rep = conjecture_search(cid, bounds)
        reports.append(rep.to_json())
        timings[cid] = round(rep.elapsed, 6)
    _emit(
        {
            "config": _config_json(args, "conjecture"),
            "reports": reports,
            "timings": {"per_conjecture_seconds": timings},
        },
        args.format,
        args.out,
    )
    return 0


def _cmd_bench(args) -> int:
    import random

    from catdet.linalg import (
        INT,
        QPOLY,
        Matrix,
        det_bareiss,
        det_condensation,
        det_hessenberg,
    )
    from catdet.qseries import QPoly

    rng = random.Random(args.seed)
    rows = []
    for size in (6, 10, 14, 18):
        m = Matrix(size, size, [rng.randint(-9, 9) for _ in range(size * size)], INT)
        # the same draws with every entry above the superdiagonal zeroed
        h = Matrix.build(size, size, lambda i, j: m[i, j] if j <= i + 1 else 0, INT)
        for name, engine, matrix in (("bareiss", det_bareiss, m),
                                     ("condensation", det_condensation, m),
                                     ("hessenberg", det_hessenberg, h)):
            t0 = time.perf_counter()
            engine(matrix)
            rows.append({"ring": "integer", "size": size, "engine": name,
                         "seconds": round(time.perf_counter() - t0, 6)})
    for size in (4, 6):
        m = Matrix(
            size, size,
            [QPoly([(2 * rng.randint(0, 4), rng.randint(-3, 3))]) + 1 for _ in range(size * size)],
            QPOLY,
        )
        t0 = time.perf_counter()
        det_bareiss(m)
        rows.append({"ring": "q-polynomial", "size": size, "engine": "bareiss",
                     "seconds": round(time.perf_counter() - t0, 6)})
    _emit({"bench": rows}, args.format, args.out)
    return 0


def _bound(text: str) -> int:
    """A grid bound: a non-negative integer (argparse exits 2 on anything else)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catdet",
        description="Exact verification of Catalan-style determinant and sum identities.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--id", action="append", default=None,
                       help="check id (repeatable); see `catdet list`")
        p.add_argument("--n-max", type=_bound, default=None, help="max n in the grid")
        p.add_argument("--k-max", type=_bound, default=None, help="max k in the grid")
        p.add_argument("--m-max", type=_bound, default=None, help="max m in the grid")
        p.add_argument("--r", type=_bound, default=None, help="max r in the grid")
        p.add_argument("--x", type=_bound, default=None, help="max x in the grid")
        p.add_argument("--mod", type=int, default=None,
                       help="restrict conjectures to this modulus")
        p.add_argument("--cases", type=_bound, default=None,
                       help="number of randomized cases")
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        p.add_argument("--format", choices=("json", "markdown"), default="json")
        p.add_argument("--fail-fast", action="store_true")
        p.add_argument("--out", default=None, help="write the report to this path")

    p_list = sub.add_parser("list", help="index of registered checks")
    p_list.add_argument("--format", choices=("json", "markdown"), default="markdown")
    p_list.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run one check over its grid")
    add_common(p_verify)

    p_suite = sub.add_parser("suite", help="run every registered check")
    add_common(p_suite)
    p_suite.add_argument("--level", choices=("fast", "full"), default="fast")

    p_conj = sub.add_parser("conjecture", help="run counterexample searches")
    add_common(p_conj)

    p_bench = sub.add_parser("bench", help="time the determinant engines")
    add_common(p_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        # default: the fast suite
        args = parser.parse_args(["suite", "--level", "fast"])
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "conjecture":
            return _cmd_conjecture(args)
        if args.command == "bench":
            return _cmd_bench(args)
    except BrokenPipeError:
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
