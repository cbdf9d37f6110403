"""The command-line entry point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import ALL_EXPERIMENTS


def test_parser_lists_all_experiments():
    parser = build_parser()
    args = parser.parse_args(["table1"])
    assert args.experiment == "table1"
    assert args.seed == 20150421


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["not-a-figure"])


def test_seed_flag():
    args = build_parser().parse_args(["fig01", "--seed", "7"])
    assert args.seed == 7


def test_main_runs_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "derby" in out


def test_main_runs_multiapp(capsys):
    assert main(["multiapp"]) == 0
    out = capsys.readouterr().out
    assert "verified:         True" in out


def test_migrate_command_runs_and_reports(capsys):
    code = main(
        [
            "migrate",
            "--workload", "crypto",
            "--engine", "javmm",
            "--mem-mb", "512",
            "--young-mb", "128",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "javmm" in out
    assert "verified: True" in out


def test_migrate_command_json(capsys):
    code = main(
        [
            "migrate",
            "--workload", "crypto",
            "--engine", "xen",
            "--mem-mb", "512",
            "--young-mb", "128",
            "--json",
        ]
    )
    assert code == 0
    import json as jsonlib

    payload = jsonlib.loads(capsys.readouterr().out)
    assert payload["engine"] == "xen"
    assert payload["verified"] is True
    assert payload["iterations"]


@pytest.mark.parametrize("flags,field", [
    (["--workload", "nope"], "workload"),
    (["--engine", "bogus"], "engine"),
    (["--young-mb", "0"], "young_mb"),
])
def test_bad_migrate_flag_is_one_error_line(flags, field):
    """A bad flag is refused before any VM is built: exit 2, one line."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "migrate", *flags],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {field}: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_experiment_registry_complete():
    expected = {
        "fig01", "fig05", "fig08", "fig09", "fig10", "fig11", "fig12",
        "table1", "table2", "table3", "ablations", "scaleup", "multiapp",
        "wan",
    }
    assert set(ALL_EXPERIMENTS) == expected
    for module in ALL_EXPERIMENTS.values():
        assert hasattr(module, "main")
