"""Smoke test of the overhead harness's per-migration function.

One workload/engine pair in all five configurations: the oracles the
harness gates on hold, and the rows key and compare like the legacy
``BENCH_PR*.json`` baselines ``make check-bench`` diffs them against.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.telemetry.analysis.compare import compare_runs, summarize_bench
from repro.telemetry.live import FleetBoard

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location(
        "bench_harness", ROOT / "benchmarks" / "harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def rows(harness, tmp_path_factory):
    export_dir = tmp_path_factory.mktemp("harness")
    board = FleetBoard()
    return {
        config: harness.migrate_once("derby", "javmm", config, export_dir, board)
        for config in harness.CONFIGS
    }


def test_sim_measures_identical_within_each_supervisor_setting(harness, rows):
    def sim(config):
        return tuple(rows[config][m] for m in harness.SIM_MEASURES)

    assert sim("plain") == sim("telemetry")
    assert sim("analysis") == sim("attribution") == sim("live")
    assert harness.sim_identical(list(rows.values()))


def test_conservation_and_board_oracles_hold(rows):
    assert rows["attribution"]["conservation_ok"] is True
    assert rows["live"]["conservation_ok"] is True
    assert rows["live"]["board_ok"] is True


def test_rows_key_like_the_legacy_baselines(rows):
    keys = set(summarize_bench({"runs": list(rows.values())}))
    assert keys == {
        "derby/javmm/plain",
        "derby/javmm/telemetry/plain",
        "derby/javmm/analysis",
        "derby/javmm/attribution",
        "derby/javmm",
    }


@pytest.mark.parametrize(
    "baseline, gated_pairs",
    # (baseline, gated (key, measure) pairs for derby/javmm): BENCH_PR3
    # shares only its plain key, BENCH_PR4 three keys x 3 measures,
    # BENCH_PR8 two x 4 (retransmit bytes too), BENCH_PR9 one x 3
    [("BENCH_PR3.json", 1), ("BENCH_PR4.json", 9), ("BENCH_PR8.json", 8),
     ("BENCH_PR9.json", 3)],
)
def test_rows_compare_against_the_legacy_baselines(rows, tmp_path, baseline, gated_pairs):
    candidate = tmp_path / "harness.json"
    candidate.write_text(json.dumps({"runs": list(rows.values())}))
    result = compare_runs(ROOT / baseline, candidate)
    gated = [d for d in result.deltas if d.threshold_pct is not None]
    assert len(gated) == gated_pairs
    assert not result.regressed, result.render()
