"""Command line front end.

Subcommands: ``list`` (the check index), ``verify`` (one check over a grid),
``suite`` (every registered check) and ``conjecture`` (counterexample
searches).  Reports are emitted as JSON or markdown with identical pass/fail
content; all timing data lives in a separate ``timings`` object so that
reports from identical configurations are byte-identical apart from it.
Each subcommand takes only the flags it reads (``--r``, ``--x``, ``--cases``
and ``--fail-fast`` belong to ``verify`` and ``suite``, ``--mod`` to
``conjecture``), and a report's ``config`` lists exactly those flags.
``verify`` and ``suite`` run every grid point in this process, one after
another in grid order, so the points of one family share its sweeps; the
report is streamed, one row as each point returns, and a regular ``--out``
file is replaced by a whole sibling file once complete.
Each JSON row is written from one fixed template (``_row_text``) and every
other payload by ``_json_text``; both give the bytes of
``json.dumps(indent=2, sort_keys=True)``.

Exit codes: 0 when every non-conjecture point passes (a conjecture
counterexample is a report outcome, not a failure); 1 when a non-conjecture
point is false; 2 on a usage error (a bad argument, an unknown id, an empty
grid, an ``--out`` that cannot be opened); 3 when a point or a conjecture
search raised (status ``error``), which takes precedence over 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
import time
from collections.abc import Callable, Iterator
from json.encoder import encode_basestring_ascii

import catdet.residues  # noqa: F401  (registers the modular checks)
from catdet import registry
from catdet.registry import Bounds, CheckResult, check_index
from catdet.residues import CONJECTURE_IDS, CONJECTURES, conjecture_search


def _bounds_from_args(args, fast: bool = False) -> Bounds:
    """The grid bounds in ``args``; ``conjecture`` takes no ``--r``, ``--x`` or ``--cases``."""
    flags = vars(args)
    return Bounds(n_max=args.n_max, k_max=args.k_max, m_max=args.m_max, r_max=flags.get("r"),
                  x_max=flags.get("x"), cases=flags.get("cases"), seed=args.seed, fast=fast)


def _config_json(args, command: str) -> dict:
    """Every flag the subcommand takes, by its argparse name, with ``ids`` for ``--id``."""
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "id", "level", "out")}
    return {"command": command, "ids": args.id, **flags}


def _median(values: list[float]) -> float:
    """Not ``statistics.median``: importing it adds about 1 ms to a run, 5% of int_deep's."""
    return (sorted(values)[len(values) // 2] + sorted(values)[(len(values) - 1) // 2]) / 2


def _md_cell(text: str) -> str:
    """``text`` escaped to stay in one table cell on one line, cut to 60 characters."""
    text = text.replace("|", "\\|").replace("\r", "\\r").replace("\n", "\\n")
    return text if len(text) <= 60 else text[:57] + "..."


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` written at ``indent``.

    Every payload but the report rows (``_row_text``) is written here, and
    none of them is large.
    """
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _row_text(res: CheckResult) -> str:
    """``_json_text(res.to_json(), "    ")``, byte for byte, from one fixed template.

    Every row has the keys ``id lhs params rhs status``, in sorted order, so
    only a ``params`` value that is not an int goes through ``_json_text``.
    """
    params = ",\n".join(
        f"        {encode_basestring_ascii(key)}: "
        + (repr(value) if type(value) is int else _json_text(value, "        "))
        for key, value in sorted(res.params.items()))
    params = "{\n" + params + "\n      }" if params else "{}"
    return (f'{{\n      "id": {encode_basestring_ascii(res.check_id)},\n'
            f'      "lhs": {encode_basestring_ascii(res.lhs)},\n      "params": {params},\n'
            f'      "rhs": {encode_basestring_ascii(res.rhs)},\n'
            f'      "status": {encode_basestring_ascii(res.status)}\n    }}')


class _Unwritable(Exception):
    """An ``--out`` path that cannot be opened for writing: a usage error."""


@contextlib.contextmanager
def _sink(out: str | None) -> Iterator[Callable[[str], object]]:
    """``write`` of stdout or ``out``; a regular ``out`` is swapped for a whole sibling file."""
    if not out:
        yield sys.stdout.write
        return
    mode = os.lstat(out).st_mode if os.path.lexists(out) else None
    # a symlink, a device or a FIFO is written through; a directory fails to open
    path = out if mode is not None and not stat.S_ISREG(mode) else f"{out}.{os.getpid()}.part"
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise _Unwritable(f"cannot write --out {out!r}: {exc.strerror}") from None
    try:
        with fh:
            yield fh.write
        if path != out:
            if mode is not None:
                os.chmod(path, stat.S_IMODE(mode))
            os.replace(path, out)
    finally:
        if path != out and os.path.exists(path):
            os.remove(path)


def _emit(payload: dict, fmt: str, write: Callable[[str], object]) -> None:
    text = _json_text(payload)
    write("```json\n" + text + "\n```\n" if fmt == "markdown" else text + "\n")


def _cmd_list(args) -> int:
    index = check_index()
    with _sink(args.out) as write:
        if args.format == "json":
            _emit({"checks": index}, "json", write)
        else:
            lines = ["| id | kind | anchor | params |", "|---|---|---|---|"]
            for entry in index:
                lines.append(f"| {entry['id']} | {entry['kind']} | {entry['anchor']} | "
                             f"{', '.join(entry['params'])} |")
            write("\n".join(lines) + "\n")
    return 0


def _run_checks(args, command: str, ids: list[str], bounds: Bounds) -> int:
    """Run and write every grid point of ``ids``; an unknown id or an empty grid exits 2."""
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
    conjectures = {check_id for check_id in ids if registry.CHECKS[check_id].conjecture}
    markdown = args.format == "markdown"
    seconds: dict[str, list[float]] = {}
    rows = passed = code = 0
    with _sink(args.out) as write:
        write("# catdet report\n\n| id | params | status | lhs | rhs |\n|---|---|---|---|---|\n"
              if markdown else '{\n  "config": ' + _json_text(_config_json(args, command), "  ")
              + ',\n  "results": [')
        for check_id, params in tasks:
            res = registry.run_check(check_id, **params)
            if markdown:
                shown = ", ".join(f"{k}={v}" for k, v in res.params.items())
                write(f"| {res.check_id} | {shown} | {res.status} | {_md_cell(res.lhs)} | "
                      f"{_md_cell(res.rhs)} |\n")
            else:
                write(("," if rows else "") + "\n    " + _row_text(res))
            rows += 1
            seconds.setdefault(res.check_id, []).append(res.elapsed)
            passed += res.passed
            failing = not res.passed and res.check_id not in conjectures
            code = 3 if res.status == "error" else code or int(failing)
            if failing and args.fail_fast:
                break
        failed = rows - passed
        if markdown:
            write(f"\n**pass: {passed}, fail: {failed}**\n")
            return code
        timings = {"total_seconds": round(time.perf_counter() - t0, 6)}
        for key, fn in (("per_check_seconds", sum), ("per_check_median_point_seconds", _median),
                        ("per_check_max_point_seconds", max)):
            timings[key] = {cid: round(fn(times), 6) for cid, times in sorted(seconds.items())}
        write('\n  ],\n  "summary": ' + _json_text({"pass": passed, "fail": failed}, "  ")
              + ',\n  "timings": ' + _json_text(timings, "  ") + "\n}\n")
    return code


def _cmd_verify(args) -> int:
    if not args.id:
        print("verify requires at least one --id", file=sys.stderr)
        return 2
    return _run_checks(args, "verify", args.id, _bounds_from_args(args))


def _cmd_suite(args) -> int:
    bounds = _bounds_from_args(args, fast=(args.level == "fast"))
    return _run_checks(args, f"suite:{args.level}", args.id or sorted(registry.CHECKS), bounds)


def _cmd_conjecture(args) -> int:
    """Run the searches; an unknown id, no id left by ``--mod`` or an empty grid exits 2.

    A search that raises gets a report with status ``error``, the exception's
    type and message; the other searches still run and the command exits 3.
    """
    ids = args.id or list(CONJECTURE_IDS)
    for cid in ids:
        if cid not in CONJECTURES:
            print(f"unknown conjecture id: {cid!r}", file=sys.stderr)
            return 2
    if args.mod is not None:
        ids = [c for c in ids if CONJECTURES[c].modulus == args.mod]
        if not ids:
            print(f"no conjecture with modulus {args.mod}", file=sys.stderr)
            return 2
    bounds = _bounds_from_args(args)
    for cid in ids:
        if not CONJECTURES[cid].grid(bounds):
            print(f"empty grid for {cid}", file=sys.stderr)
            return 2
    reports = []
    timings = {}
    code = 0
    with _sink(args.out) as write:
        for cid in ids:
            try:
                rep = conjecture_search(cid, bounds)
            except Exception as exc:
                reports.append({"conjecture": cid, "status": "error",
                                "error": type(exc).__name__, "message": str(exc)})
                code = 3
                continue
            reports.append(rep.to_json())
            timings[cid] = round(rep.elapsed, 6)
        _emit(
            {
                "config": _config_json(args, "conjecture"),
                "reports": reports,
                "timings": {"per_conjecture_seconds": timings},
            },
            args.format,
            write,
        )
    return code


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
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        p.add_argument("--format", choices=("json", "markdown"), default="json")
        p.add_argument("--out", default=None, help="write the report to this path")

    p_list = sub.add_parser("list", help="index of registered checks")
    p_list.add_argument("--format", choices=("json", "markdown"), default="markdown")
    p_list.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run one check over its grid")
    p_suite = sub.add_parser("suite", help="run every registered check")
    p_suite.add_argument("--level", choices=("fast", "full"), default="fast")
    for p in (p_verify, p_suite):
        add_common(p)
        p.add_argument("--r", type=_bound, default=None, help="max r in the grid")
        p.add_argument("--x", type=_bound, default=None, help="max x in the grid")
        p.add_argument("--cases", type=_bound, default=None,
                       help="number of randomized cases")
        p.add_argument("--fail-fast", action="store_true")

    p_conj = sub.add_parser("conjecture", help="run counterexample searches")
    add_common(p_conj)
    p_conj.add_argument("--mod", type=int, default=None,
                        help="restrict conjectures to this modulus")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        # default: the fast suite
        args = parser.parse_args(["suite", "--level", "fast"])
    commands = {"list": _cmd_list, "verify": _cmd_verify, "suite": _cmd_suite,
                "conjecture": _cmd_conjecture}
    try:
        return commands[args.command](args)
    except BrokenPipeError:
        return 0
    except _Unwritable as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
