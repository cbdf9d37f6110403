"""Self-tests of the benchmark: tiny smokes of every workload, and
corrupted outputs that must be counted as failures.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os

import pytest

import checks
import run
import workloads as wl

ROOT = run.ROOT


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def tiny(monkeypatch):
    """One SPEC workload, short profiles, two submitters."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(wl, "SPEC", ("mpeg",))
    monkeypatch.setattr(wl, "PROFILE_S", 20.0)
    monkeypatch.setattr(wl, "SUBMITTERS", 2)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = (
        {n: run.END_TO_END[n][0] for n in run.GATED} if trace == 0
        else {n: unit for n, (unit, _) in run.PER_LAYER.items()}
    )
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name in run.GATED + ("error_rate",):
        assert f"  {name} " in out
    if workload == "ops-fleet":
        for name in ("ctl_p50_ms", "ctl_tail_ms"):
            assert f"  {name} " in out
    if workload != "heap-profile":
        for name in ("sim_mig_s", "sim_downtime_s", "wire_gib"):
            assert f"  {name} " in out
    if trace:
        layer = {n: m["value"] for n, m in result["metrics"].items()}
        if workload == "ops-fleet":
            assert layer["service.slices"] > 0
            assert layer["checkpoint.writes"] > 0
        elif workload == "lan-paper":
            assert layer["migration.pages_sent"] > 0
            assert layer["sim.abstain.precopy"] > 0
        else:
            assert layer["mem.walk.calls"] > 0
            assert layer["migration.self_s"] == 0


def test_unverified_report_fails_the_run(tiny, capsys, monkeypatch):
    from repro import core

    real = core.migrate_full
    calls = []

    def corrupt(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 3:  # first item of the second pass
            result.report.verified = False
        return result

    monkeypatch.setattr(core, "migrate_full", corrupt)
    code = run.main(["--workload", "lan-paper", "--seed", "3", "--seconds", "0.1"])
    result = _last_json(capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 4


def test_digest_mismatch_between_passes_fails_the_run(tiny, capsys, monkeypatch):
    from repro import core

    real = core.migrate_full
    calls = []

    def drift(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 4:  # javmm item of the second pass
            result.report.cpu_seconds += 1e-9
        return result

    monkeypatch.setattr(core, "migrate_full", drift)
    code = run.main(["--workload", "lan-paper", "--seed", "3", "--seconds", "0.1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "differs from first pass" in out
    assert json.loads(out.strip().splitlines()[-1])["failed"] == 1


def test_checks_reject_corrupted_outputs():
    good = {"verified": True, "violating_pages": 0}
    ledger = checks.Ledger()
    assert ledger.record("a", [])
    assert not ledger.record("b", checks.report_problems({**good, "verified": False}))
    assert not ledger.record("c", checks.report_problems({**good, "violating_pages": 3}))
    assert not ledger.record("d", checks.payload_problems({"ok": False}, supervised=True))
    assert (ledger.attempted, ledger.failed) == (4, 3)
    assert ledger.error_rate == pytest.approx(0.75)
    book = checks.DigestBook()
    assert book.problems("x", checks.digest({"a": 1})) == []
    assert book.problems("x", checks.digest({"a": 1})) == []
    assert book.problems("x", checks.digest({"a": 2}))


def test_tail_has_ten_samples_beyond_it():
    from tracing import tail

    values = [float(i) for i in range(1, 101)]
    value, pct, n = tail(values)
    assert n == 100 and pct == 90.0
    assert sum(v > value for v in values) == 10


def test_missing_sources_exit_nonzero(tmp_path, capsys):
    import shutil
    import subprocess
    import sys

    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lan-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_manifest_matches_the_code():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json beside the benchmark")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(run.GATED_WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == {
        n: run.END_TO_END[n][0] for n in run.GATED}
    assert {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]} == (
        run.PER_LAYER)
