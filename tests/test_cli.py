import ast
import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from catdet.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list_json(capsys):
    code, out = run_cli(capsys, "list", "--format", "json")
    assert code == 0
    data = json.loads(out)
    ids = {e["id"] for e in data["checks"]}
    assert "eq1" in ids and "c14" in ids


def test_verify_eq1(capsys):
    code, out = run_cli(capsys, "verify", "--id", "eq1", "--n-max", "12")
    assert code == 0
    data = json.loads(out)
    assert len(data["results"]) == 13
    assert data["summary"] == {"pass": 13, "fail": 0}
    assert all(r["status"] == "pass" for r in data["results"])


def test_verify_unknown_id(capsys):
    code, _ = run_cli(capsys, "verify", "--id", "eq9999")
    assert code == 2


def test_verify_requires_id(capsys):
    code, _ = run_cli(capsys, "verify")
    assert code == 2


def test_reports_byte_identical_apart_from_timings(capsys):
    _, out1 = run_cli(capsys, "verify", "--id", "eq64", "--seed", "7")
    _, out2 = run_cli(capsys, "verify", "--id", "eq64", "--seed", "7")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timings")
    d2.pop("timings")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    # a different seed changes the random cases but not determinism
    _, out3 = run_cli(capsys, "verify", "--id", "eq64", "--seed", "8")
    d3 = json.loads(out3)
    assert d3["summary"]["fail"] == 0


def test_markdown_and_json_have_identical_content(capsys):
    _, json_out = run_cli(capsys, "verify", "--id", "eq30", "--format", "json")
    _, md_out = run_cli(capsys, "verify", "--id", "eq30", "--format", "markdown")
    data = json.loads(json_out)
    md_rows = [l for l in md_out.splitlines() if l.startswith("| eq30 ")]
    assert len(md_rows) == len(data["results"])
    assert f"**pass: {data['summary']['pass']}, fail: {data['summary']['fail']}**" in md_out
    for r, line in zip(data["results"], md_rows):
        assert r["status"] in line


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(capsys, "verify", "--id", "eq1", "--n-max", "5", "--out", str(path))
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert data["summary"]["pass"] == 6


def _clear_orthopoly_tables():
    from catdet import registry, residues

    registry._tables.cache_clear()
    residues._parity_tables.cache_clear()


def test_shared_orthopoly_tables_change_no_result(capsys):
    ids = ["eq69", "thm5", "eq103", "eq104"]
    _clear_orthopoly_tables()
    _, together = run_cli(capsys, "verify", *[arg for cid in ids for arg in ("--id", cid)])
    alone = []
    for cid in ids:
        _clear_orthopoly_tables()
        _, out = run_cli(capsys, "verify", "--id", cid)
        alone += json.loads(out)["results"]
    assert json.loads(together)["results"] == alone
    assert len(alone) == 276 + 42 + 49 + 9


def _report_digests(results: list[dict]) -> dict[str, list]:
    """Per check id: point count and SHA-256 of its (id, params, status, lhs,
    rhs) lines, encoded as the benchmark gate encodes them."""
    import hashlib

    counts: dict[str, int] = {}
    hashes: dict = {}
    for r in results:
        line = json.dumps([r["id"], r["params"], r["status"], r["lhs"], r["rhs"]],
                          sort_keys=True, separators=(",", ":"))
        hashes.setdefault(r["id"], hashlib.sha256()).update(line.encode() + b"\n")
        counts[r["id"]] = counts.get(r["id"], 0) + 1
    return {cid: [counts[cid], h.hexdigest()] for cid, h in hashes.items()}


def test_orthopoly_full_grids_match_the_recorded_digests(capsys):
    ids = ["thm5", "eq69", "eq102", "eq103", "eq104", "eq22", "eq24", "eq25", "eq29", "eq41"]
    code, out = run_cli(capsys, "verify", *[arg for cid in ids for arg in ("--id", cid)])
    assert code == 0
    expected = json.loads((Path(__file__).parents[1] / "benchmark" / "expected.json")
                          .read_text())["workloads"]["suite_full"]["checks"]
    assert _report_digests(json.loads(out)["results"]) == {
        cid: [expected[cid]["points"], expected[cid]["sha256"]] for cid in ids}


def test_conjecture_report(capsys):
    code, out = run_cli(capsys, "conjecture", "--id", "c14", "--n-max", "27")
    assert code == 0
    data = json.loads(out)
    rep = data["reports"][0]
    assert rep["conjecture"] == "c14"
    assert rep["status"] == "verified-up-to"
    assert rep["grid"]["n"] == 27


def test_conjecture_counterexample_still_exit_zero(capsys):
    code, out = run_cli(capsys, "conjecture", "--id", "c13a", "--n-max", "6", "--k-max", "6")
    assert code == 0
    data = json.loads(out)
    assert data["reports"][0]["status"] == "counterexample"
    assert data["reports"][0]["counterexample"]["params"] == {"n": 4, "k": 6}


def test_conjecture_mod_filter(capsys):
    code, out = run_cli(capsys, "conjecture", "--mod", "3", "--n-max", "9")
    assert code == 0
    data = json.loads(out)
    assert [r["conjecture"] for r in data["reports"]] == ["c14"]


def test_raising_conjecture_search_is_an_error_and_exits_3(monkeypatch, capsys):
    from catdet import cli

    search = cli.conjecture_search

    def crash_c13a(cid, bounds=None):
        if cid == "c13a":
            raise ZeroDivisionError("boom in c13a")
        return search(cid, bounds)

    monkeypatch.setattr(cli, "conjecture_search", crash_c13a)
    code, out = run_cli(capsys, "conjecture", "--id", "c13a", "--id", "c14", "--n-max", "5")
    # the search after the raising one still runs
    assert code == 3
    data = json.loads(out)
    assert data["reports"][0] == {"conjecture": "c13a", "status": "error",
                                  "error": "ZeroDivisionError", "message": "boom in c13a"}
    assert (data["reports"][1]["conjecture"], data["reports"][1]["status"]) == (
        "c14", "verified-up-to")
    assert list(data["timings"]["per_conjecture_seconds"]) == ["c14"]


def test_suite_subset(capsys):
    code, out = run_cli(capsys, "suite", "--id", "eq1", "--id", "eq2", "--n-max", "8")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["fail"] == 0
    ids = {r["id"] for r in data["results"]}
    assert ids == {"eq1", "eq2"}


def test_exit_code_on_failure(monkeypatch, capsys):
    # inject a failing check to pin the exit-code contract
    from catdet import registry

    def bad_run(n):
        return False, 0, 1

    check = registry.Check(
        "zzfail", "synthetic", "det", lambda b: [{"n": 0}], bad_run
    )
    monkeypatch.setitem(registry.CHECKS, "zzfail", check)
    code, out = run_cli(capsys, "verify", "--id", "zzfail")
    assert code == 1
    data = json.loads(out)
    assert data["summary"]["fail"] == 1


@pytest.mark.parametrize("command", ["verify", "suite"])
def test_raising_point_is_an_error_and_exits_3(monkeypatch, capsys, command):
    from catdet import registry

    def crash(n):
        if n == 1:
            raise ZeroDivisionError("boom at 1")
        return n != 2, n, 0

    check = registry.Check(
        "zzcrash", "synthetic", "det", lambda b: [{"n": i} for i in range(4)], crash
    )
    monkeypatch.setitem(registry.CHECKS, "zzcrash", check)
    code, out = run_cli(capsys, command, "--id", "zzcrash")
    # an error outranks the false identity at n = 2, and the points after it still run
    assert code == 3
    data = json.loads(out)
    assert [r["status"] for r in data["results"]] == ["pass", "error", "fail", "pass"]
    assert (data["results"][1]["lhs"], data["results"][1]["rhs"]) == ("ZeroDivisionError",
                                                                      "boom at 1")
    assert data["summary"] == {"pass": 2, "fail": 2}


def test_fail_fast_stops_early(monkeypatch, capsys):
    from catdet import registry

    calls = []

    def flaky(n):
        calls.append(n)
        return n < 2, n, "small"

    check = registry.Check(
        "zzflaky", "synthetic", "det", lambda b: [{"n": i} for i in range(6)], flaky
    )
    monkeypatch.setitem(registry.CHECKS, "zzflaky", check)
    code, out = run_cli(capsys, "verify", "--id", "zzflaky", "--fail-fast")
    assert code == 1
    assert calls == [0, 1, 2]
    data = json.loads(out)
    assert len(data["results"]) == 3


@pytest.mark.parametrize("fmt, first_row", [
    ("json", '"id": "zzstream"'),
    ("markdown", "| zzstream | n=0 | pass | 0 | 0 |\n"),
], ids=["json", "markdown"])
def test_rows_are_written_as_their_points_finish(monkeypatch, fmt, first_row):
    from catdet import registry

    out = io.StringIO()
    seen = []

    def run(n):
        seen.append(out.getvalue())
        return True, n, n

    check = registry.Check("zzstream", "synthetic", "det", lambda b: [{"n": 0}, {"n": 1}], run)
    monkeypatch.setitem(registry.CHECKS, "zzstream", check)
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--id", "zzstream", "--format", fmt]) == 0
    assert first_row not in seen[0]
    assert first_row in seen[1]


def test_interrupted_run_leaves_the_out_file_as_it_was(monkeypatch, tmp_path):
    from catdet import registry

    def interrupted(n):
        if n == 1:
            raise KeyboardInterrupt
        return True, n, n

    check = registry.Check("zzstop", "synthetic", "det", lambda b: [{"n": 0}, {"n": 1}],
                           interrupted)
    monkeypatch.setitem(registry.CHECKS, "zzstop", check)
    path = tmp_path / "report.json"
    path.write_bytes(b"old report\n")
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "--id", "zzstop", "--out", str(path)])
    assert path.read_bytes() == b"old report\n"
    assert os.listdir(tmp_path) == ["report.json"]


def test_out_onto_a_file_keeps_its_mode(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("old report\n")
    path.chmod(0o640)
    code, out = run_cli(capsys, "verify", "--id", "eq1", "--n-max", "5", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["summary"]["pass"] == 6
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert os.listdir(tmp_path) == ["report.json"]


def test_out_through_a_symlink_keeps_the_link(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("old report\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, out = run_cli(capsys, "verify", "--id", "eq1", "--n-max", "5", "--out", str(link))
    assert code == 0 and out == ""
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())["summary"]["pass"] == 6
    assert sorted(os.listdir(tmp_path)) == ["link.json", "report.json"]


def test_out_to_a_fifo_writes_through(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    code, out = run_cli(capsys, "list", "--format", "json", "--out", str(fifo))
    reader.join(timeout=30)
    assert code == 0 and out == ""
    assert "eq1" in [entry["id"] for entry in json.loads(got[0])["checks"]]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


@pytest.mark.parametrize("command", [
    ["list"], ["verify", "--id", "eq1", "--n-max", "3"], ["suite", "--id", "eq1", "--n-max", "3"],
    ["conjecture", "--id", "c13a", "--n-max", "3"]], ids=lambda c: c[0])
@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_out_that_cannot_be_opened_exits_2(tmp_path, capsys, monkeypatch, command, where):
    # exit 1 means a false identity; an --out that cannot be opened is a usage
    # error, found before any search runs
    from catdet import cli

    searched = []
    monkeypatch.setattr(cli, "conjecture_search", lambda cid, bounds: searched.append(cid))
    out = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    (tmp_path / "keep").write_text("")
    code = main([*command, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and searched == []
    assert captured.err.count("\n") == 1 and str(out) in captured.err
    assert os.listdir(tmp_path) == ["keep"]


def test_markdown_row_stays_on_one_line(monkeypatch, capsys):
    from catdet import registry

    def crash(n):
        raise ValueError("line one\nline two | x\r")

    check = registry.Check("zzlines", "synthetic", "det", lambda b: [{"n": 0}], crash)
    monkeypatch.setitem(registry.CHECKS, "zzlines", check)
    code, out = run_cli(capsys, "verify", "--id", "zzlines", "--format", "markdown")
    assert code == 3
    assert "| zzlines | n=0 | error | ValueError | line one\\nline two \\| x\\r |\n" in out
    assert len(out.splitlines()) == 7


def test_timings_per_point_median_and_max(monkeypatch, capsys):
    from catdet import registry
    from catdet.registry import CheckResult

    seconds = {("zzodd", 0): 0.125, ("zzodd", 1): 0.5, ("zzodd", 2): 0.25,
               ("zzeven", 0): 0.25, ("zzeven", 1): 0.5, ("zzeven", 2): 2.0, ("zzeven", 3): 1.0}

    def timed(check_id, n):
        return CheckResult(check_id, {"n": n}, "pass", "1", "1", seconds[check_id, n])

    for cid, size in (("zzodd", 3), ("zzeven", 4)):
        check = registry.Check(cid, "synthetic", "det",
                               lambda b, m=size: [{"n": i} for i in range(m)], None)
        monkeypatch.setitem(registry.CHECKS, cid, check)
    monkeypatch.setattr(registry, "run_check", timed)
    code, out = run_cli(capsys, "verify", "--id", "zzodd", "--id", "zzeven")
    assert code == 0
    timings = json.loads(out)["timings"]
    assert timings["per_check_seconds"] == {"zzeven": 3.75, "zzodd": 0.875}
    assert timings["per_check_median_point_seconds"] == {"zzeven": 0.75, "zzodd": 0.25}
    assert timings["per_check_max_point_seconds"] == {"zzeven": 2.0, "zzodd": 0.5}


SRC = Path(__file__).resolve().parents[1] / "src"


def _report_without_timings(*flags: str, argv=("verify", "--id", "eq1", "--id", "eq96", "--id",
                                               "c14", "--id", "eq74", "--id", "c13b",
                                               "--n-max", "6", "--seed", "3"),
                            entry=("-m", "catdet.cli")) -> str:
    """A small verify run of ``entry`` in a fresh interpreter started with ``flags``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *flags, *entry, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    report.pop("timings")
    return json.dumps(report, sort_keys=True)


def test_report_unchanged_under_python_O():
    plain = _report_without_timings()
    assert '"fail": 0' in plain
    assert _report_without_timings("-O") == plain


def test_serial_cli_does_not_import_multiprocessing():
    # multiprocessing loads pickle, socket and selectors; every grid point runs
    # in this process, so no module of the package imports it, even lazily
    found = []
    for path in sorted((SRC / "catdet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for module in modules
                      if module.split(".")[0] == "multiprocessing"]
    assert found == []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, catdet.cli; print('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


_NO_GCD_NO_DIVISION = """
import sys
from catdet import qseries
from catdet.cli import main

def refuse(*args):
    raise AssertionError("polynomial gcd or exact division")

qseries._gcdheu = refuse
qseries.QPoly.exact_div = refuse
qseries._long_div = refuse
sys.exit(main(sys.argv[1:]))
"""


def test_q_ring_checks_take_no_gcd_and_no_long_division():
    # the q-binomial and q-Catalan checks build every value from its factor
    # list: with the polynomial gcd (GCDHEU) and both exact divisions (packed
    # and long) refusing, a fresh run (every cache cold) still exits 0 with
    # the same report
    argv = ("verify", "--id", "eq83", "--id", "eq84", "--id", "eq86", "--id", "eq87", "--id",
            "eq91", "--seed", "5")
    plain = _report_without_timings(argv=argv)
    assert '"fail": 0' in plain
    assert _report_without_timings(argv=argv, entry=("-c", _NO_GCD_NO_DIVISION)) == plain


def test_no_assert_statement_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "catdet").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_public_definition_is_used_in_the_package():
    # a public top-level function or class that no code of the package names
    # (its own body and the re-exports of __init__ aside) is a dead helper;
    # registry.verify_range is the entry point the README documents
    defined, used = [], set()
    for path in sorted((SRC / "catdet").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            refs = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            refs |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(node.name)
                if not node.name.startswith("_"):
                    defined.append(f"{path.stem}.{node.name}")
            used |= refs
    dead = [name for name in defined if name.split(".")[1] not in used]
    assert dead == ["registry.verify_range"]


def test_every_private_definition_and_every_import_is_used():
    # a private top-level function, class or constant that no code of the
    # package names (its own body aside) is dead, and so is an import that
    # its own module never names (``__all__`` counts); a decorated function
    # is reached through its decorator (the @register runners), and an
    # import marked "# noqa: F401" is kept for what importing it does
    private, used, dead = [], set(), []
    for path in sorted((SRC / "catdet").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        local = set()
        for node in tree.body:
            refs = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            refs |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(node.name)
                if node.name.startswith("_") and not node.decorator_list:
                    private.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                private += [(path.stem, name) for name in names
                            if name.startswith("_") and not name.startswith("__")]
                if "__all__" in names:
                    refs |= set(ast.literal_eval(node.value))
            local |= refs
        used |= local
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in " ".join(lines[node.lineno - 1:node.end_lineno]):
                continue
            dead += [f"{path.stem}: import {alias.name}" for alias in node.names
                     if (alias.asname or alias.name).split(".")[0] not in local]
    dead += [f"{stem}.{name}" for stem, name in private if name not in used]
    assert dead == []


def test_only_qseries_knows_the_byte_layout_of_packed_digits():
    # the one module that imports private names from another is linalg, and
    # only these, from qseries; the biased byte layout of packed digits
    # (``_kron_bias``, ``_restride``) is named in qseries alone
    imported, layout = [], []
    for path in sorted((SRC / "catdet").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("catdet"):
                imported += [(path.stem, node.module, alias.name) for alias in node.names
                             if alias.name.startswith("_")]
                if node.module == "catdet":
                    modules |= {alias.asname or alias.name for alias in node.names}
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        imported += [(path.stem, n.value.id, n.attr) for n in ast.walk(tree)
                     if isinstance(n, ast.Attribute) and n.attr.startswith("_")
                     and isinstance(n.value, ast.Name) and n.value.id in modules]
        if path.stem != "qseries":
            layout += [(path.stem, name) for name in sorted(names & {"_kron_bias", "_restride"})]
    assert imported == [("linalg", "catdet.qseries", name) for name in (
        "_from_dense", "_kron_pack", "_kron_pack_fresh", "_kron_unpack_signed", "_kron_width",
        "_repack")]
    assert layout == []


def test_every_name_in_all_is_bound_in_its_module():
    # a deleted helper left in __all__ would break `from ... import *` only
    # where some caller happens to star-import the module
    listed = 0
    for path in sorted((SRC / "catdet").glob("*.py")):
        bound, exported = set(), []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
                bound |= names
        assert [name for name in exported if name not in bound] == [], path.name
        listed += len(exported)
    assert listed


def test_default_command_is_fast_suite(capsys, monkeypatch):
    # trim every grid to its first point to keep the default run quick
    from catdet import registry

    originals = {cid: c.grid for cid, c in registry.CHECKS.items()}
    for cid, c in registry.CHECKS.items():
        grid_fn = originals[cid]
        monkeypatch.setitem(
            registry.CHECKS, cid,
            registry.Check(c.id, c.anchor, c.kind,
                           (lambda g: (lambda b: g(b)[:1]))(grid_fn), c.run),
        )
    code, out = run_cli(capsys)
    assert code == 0
    data = json.loads(out)
    assert data["config"]["command"] == "suite:fast"
    assert data["summary"]["fail"] == 0


def test_verify_conjecture_searches_up_to_the_bounds(monkeypatch, capsys):
    from catdet import residues

    searched = []
    search = residues.conjecture_search

    def recorded(cid, bounds=None):
        report = search(cid, bounds)
        searched.append(report.to_json())
        return report

    monkeypatch.setattr(residues, "conjecture_search", recorded)
    code, out = run_cli(capsys, "verify", "--id", "c14", "--n-max", "5")
    assert code == 0
    assert [r["params"] for r in json.loads(out)["results"]] == [{"n": 5}]
    assert [(s["grid"], s["checked"]) for s in searched] == [({"n": 5}, 6)]


@pytest.mark.parametrize("flag", ["--n-max", "--k-max", "--m-max", "--r", "--x", "--cases"])
def test_negative_bound_exits_2(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--id", "eq34", flag, "-3"])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--id", "eq1", "--jobs", "2"],
    ["verify", "--id", "eq1", "--mod", "3"],
    ["suite", "--mod", "2"],
    ["conjecture", "--fail-fast"],
    ["conjecture", "--cases", "3"],
    ["conjecture", "--r", "2"],
    ["conjecture", "--x", "2"],
], ids=["verify-jobs", "verify-mod", "suite-mod", "conjecture-fail-fast", "conjecture-cases",
        "conjecture-r", "conjecture-x"])
def test_a_flag_the_subcommand_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments" in captured.err and captured.out == ""


def test_config_lists_exactly_the_subcommand_flags(monkeypatch, capsys):
    from catdet import registry

    check = registry.Check("zzone", "synthetic", "det", lambda b: [{"n": 0}],
                           lambda n: (True, 1, 1))
    monkeypatch.setitem(registry.CHECKS, "zzone", check)
    checks = ["cases", "command", "fail_fast", "format", "ids", "k_max", "m_max", "n_max",
              "r", "seed", "x"]
    for argv in (["verify", "--id", "zzone"], ["suite", "--level", "full", "--id", "zzone"]):
        code, out = run_cli(capsys, *argv)
        assert code == 0 and sorted(json.loads(out)["config"]) == checks
    code, out = run_cli(capsys, "conjecture", "--id", "c14", "--n-max", "3", "--mod", "3")
    config = json.loads(out)["config"]
    assert code == 0 and sorted(config) == ["command", "format", "ids", "k_max", "m_max", "mod",
                                            "n_max", "seed"]
    assert (config["command"], config["ids"], config["mod"]) == ("conjecture", ["c14"], 3)


def test_empty_grid_exits_2(capsys):
    # sec4uniq checks every m below its bound, so at bound 0 it has no point
    for check_id, flag in (("eq46", "--k-max"), ("sec4uniq", "--n-max")):
        for command in ("verify", "suite"):
            code = main([command, "--id", check_id, flag, "0"])
            captured = capsys.readouterr()
            assert code == 2
            assert f"empty grid for {check_id}" in captured.err
            assert captured.out == ""


def test_conjecture_empty_grid_exits_2(capsys):
    code = main(["conjecture", "--id", "c13a", "--n-max", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "empty grid for c13a" in captured.err
    assert captured.out == ""


def test_conjecture_unknown_id_is_rejected_before_mod_filter(capsys):
    code = main(["conjecture", "--id", "nope", "--mod", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown conjecture id: 'nope'" in captured.err
    assert captured.out == ""


def test_conjecture_mod_without_match_exits_2(capsys):
    code = main(["conjecture", "--mod", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no conjecture with modulus 5" in captured.err
    assert captured.out == ""


def test_fast_suite_reports_pinned(tmp_path, capsys):
    # per check id: point count and SHA-256 of its (id, params, status, lhs,
    # rhs) lines, encoded as the benchmark gate encodes them; a change to any
    # rendered value must update report_pins.json on purpose.
    path = tmp_path / "fast.json"
    assert main(["suite", "--level", "fast", "--seed", "0", "--out", str(path)]) == 0
    text = path.read_text()
    # the report writer gives json.dumps's bytes; lines, so that a failure
    # shows the first differing line instead of diffing two 1 MB strings
    expected = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)
    got = _report_digests(json.loads(text)["results"])
    pins = json.loads((Path(__file__).parent / "report_pins.json").read_text())
    assert sorted(got) == sorted(pins)
    assert [cid for cid in pins if got[cid] != pins[cid]] == []


@pytest.mark.parametrize("results", [
    [],
    [{"id": "eq1", "lhs": "1", "params": {}, "rhs": "1", "status": "pass"}],
    [{"id": "thm5", "lhs": "bridge", "params": {"system": "q-chebyshev", "n": 3, "m": -1},
      "rhs": "holds", "status": "pass"},
     {"id": "eq9", "lhs": 'a "q"\\b\nq\u00e9\u2603', "params": {"n": 0}, "rhs": "",
      "status": "error"}],
    # a key that CheckResult.to_json does not write today, and values of
    # every other JSON type, are written as json.dumps writes them
    [{"id": "eq1", "lhs": "1", "params": {"x": 0.5, "flag": True, "none": None,
      "list": [1, [], {}, ["a", {"b": -2}]], "empty": {}}, "rhs": "1", "status": "pass",
      "extra": [{"seconds": 1e-07}]}],
])
def test_report_writer_gives_json_dumps_bytes(results, capsys):
    from catdet.cli import _emit

    report = {
        "config": {"command": "verify", "ids": ["eq1"], "jobs": 1, "n_max": None},
        "results": results,
        "summary": {"pass": 0, "fail": 0},
        "timings": {"per_check_seconds": {}, "total_seconds": 0.5},
    }
    _emit(report, "json", sys.stdout.write)
    assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"


_ODD_TEXT = 'a "q"\\b\nq\u00e9\u2603'


@pytest.mark.parametrize("params", [
    {},
    {"n": 3, "m": -1, "k": 0, "big": -2**70},
    {"flag": True, "off": False, "n": 2},
    {"system": 'q-"chebyshev"', "path": "a\\b", "text": "one\ntwo", "name": "caf\u00e9 \u2603"},
    {"grid": [1, -2, [3, []], "x", True], "empty": []},
], ids=["empty", "ints", "bools", "strings", "lists"])
@pytest.mark.parametrize("status, lhs, rhs", [
    ("pass", "1", "1"),
    ("fail", "-q^2 + 1", "q^2 - 1"),
    ("error", "ZeroDivisionError", _ODD_TEXT),
], ids=["pass", "fail", "error"])
def test_row_template_gives_the_json_writer_bytes(params, status, lhs, rhs):
    from catdet.cli import _json_text, _row_text
    from catdet.registry import CheckResult

    res = CheckResult("eq1", params, status, lhs, rhs, 0.25)
    text = _row_text(res)
    assert text == _json_text(res.to_json(), "    ")
    assert text == json.dumps(res.to_json(), indent=2, sort_keys=True).replace("\n", "\n    ")


def _mixed_check():
    """Four points whose params mix ints, strings and lists: pass, error, fail, pass."""
    from catdet import registry

    def run(n, label, flags):
        if n == 1:
            raise ValueError(_ODD_TEXT)
        return n != 2, f"{label}|{n}", n

    points = [{"n": n, "label": f'r"{n}"\u00e9', "flags": [n, -n, n == 3]} for n in range(4)]
    return registry.Check("zzmixed", "synthetic", "det", lambda b: points, run)


def test_mixed_rows_keep_their_json_and_markdown_bytes(monkeypatch, capsys):
    from catdet import registry

    monkeypatch.setitem(registry.CHECKS, "zzmixed", _mixed_check())
    code, out = run_cli(capsys, "verify", "--id", "zzmixed")
    assert code == 3
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert json.loads(out)["results"] == [
        {"id": "zzmixed", "params": {"n": n, "label": f'r"{n}"\u00e9', "flags": [n, -n, n == 3]},
         "status": status, "lhs": lhs, "rhs": rhs}
        for n, status, lhs, rhs in [(0, "pass", 'r"0"\u00e9|0', "0"),
                                    (1, "error", "ValueError", _ODD_TEXT),
                                    (2, "fail", 'r"2"\u00e9|2', "2"),
                                    (3, "pass", 'r"3"\u00e9|3', "3")]]
    code, out = run_cli(capsys, "verify", "--id", "zzmixed", "--format", "markdown")
    assert code == 3
    assert out.splitlines()[4:] == [
        '| zzmixed | n=0, label=r"0"\u00e9, flags=[0, 0, False] | pass | r"0"\u00e9\\|0 | 0 |',
        '| zzmixed | n=1, label=r"1"\u00e9, flags=[1, -1, False] | error | ValueError | '
        'a "q"\\b\\nq\u00e9\u2603 |',
        '| zzmixed | n=2, label=r"2"\u00e9, flags=[2, -2, False] | fail | r"2"\u00e9\\|2 | 2 |',
        '| zzmixed | n=3, label=r"3"\u00e9, flags=[3, -3, True] | pass | r"3"\u00e9\\|3 | 3 |',
        "",
        "**pass: 2, fail: 2**",
    ]


def test_every_json_payload_has_json_dumps_bytes(capsys):
    # the list index and conjecture reports go through the same writer as a
    # check report, in JSON and inside markdown's code fence
    from catdet.cli import _emit

    assert main(["list", "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    payload = {"config": {"command": "conjecture"}, "timings": {"per_conjecture_seconds": {}},
               "reports": [{"conjecture": "c1", "status": "error", "message": "a\tb"},
                           {"conjecture": "c2", "bound": 0.25, "found": False, "witness": None}]}
    _emit(payload, "markdown", sys.stdout.write)
    body = json.dumps(payload, indent=2, sort_keys=True)
    assert capsys.readouterr().out == "```json\n" + body + "\n```\n"
