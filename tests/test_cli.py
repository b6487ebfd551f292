import json

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


def test_jobs_parallel_matches_serial(capsys):
    _, serial = run_cli(capsys, "verify", "--id", "eq30", "--jobs", "1")
    _, parallel = run_cli(capsys, "verify", "--id", "eq30", "--jobs", "2")
    d1, d2 = json.loads(serial), json.loads(parallel)
    assert d1["results"] == d2["results"]


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


def test_bench_runs(capsys):
    code, out = run_cli(capsys, "bench")
    assert code == 0
    data = json.loads(out)
    assert len(data["bench"]) >= 6


def test_default_command_is_fast_suite(capsys, monkeypatch):
    # trim every grid to its first point to keep the default run quick
    from catdet import registry

    originals = {cid: c.grid for cid, c in registry.CHECKS.items()}
    for cid, c in registry.CHECKS.items():
        grid_fn = originals[cid]
        monkeypatch.setitem(
            registry.CHECKS, cid,
            registry.Check(c.id, c.anchor, c.kind,
                           (lambda g: (lambda b: g(b)[:1]))(grid_fn),
                           c.run, c.conjecture),
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


def test_empty_grid_exits_2(capsys):
    for command in ("verify", "suite"):
        code = main([command, "--id", "eq46", "--k-max", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "empty grid for eq46" in captured.err
        assert captured.out == ""
