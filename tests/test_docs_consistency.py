"""Keep the documentation honest: docs reference what actually exists."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                 "docs/PROTOCOL.md", "docs/MODEL.md"):
        assert (ROOT / name).exists(), name
        assert len(read(name)) > 500, name


def test_design_covers_every_eval_figure_and_table():
    design = read("DESIGN.md")
    for item in ("Fig 1", "Fig 5", "Fig 8", "Fig 9", "Fig 10", "Fig 11",
                 "Fig 12", "Table 1", "Table 2", "Table 3"):
        assert item in design, item


def test_experiments_reports_every_figure_and_table():
    text = read("EXPERIMENTS.md")
    for item in ("Figure 1", "Figure 5", "Figure 8", "Figure 9",
                 "Figure 10", "Figure 11", "Figure 12",
                 "Table 1", "Table 2", "Table 3"):
        assert item in text, item


def test_benchmarks_referenced_in_design_exist():
    docs = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "docs").glob("*.md"))
    for name in ("DESIGN.md", "README.md", "EXPERIMENTS.md", *docs, "Makefile"):
        for ref in re.findall(r"benchmarks/(\w+\.py)", read(name)):
            assert (ROOT / "benchmarks" / ref).exists(), (name, ref)


def test_engine_list_in_readme_matches_builders():
    from repro.core.builders import ENGINE_NAMES

    readme = read("README.md")
    for engine in ENGINE_NAMES:
        if engine == "assisted":
            continue  # described in prose
        assert f"`{engine}`" in readme, engine


def test_every_experiment_module_registered_in_cli():
    from repro.experiments import ALL_EXPERIMENTS

    src = ROOT / "src" / "repro" / "experiments"
    modules = {
        p.stem
        for p in src.glob("*.py")
        if p.stem not in ("__init__", "common", "stats")
    }
    assert modules == set(ALL_EXPERIMENTS)


def test_readme_example_count_matches_directory():
    scripts = list((ROOT / "examples").glob("*.py"))
    assert len(scripts) == 10
    assert "ten runnable scripts" in read("README.md")


def test_workload_registry_documented_in_table1_order():
    from repro.experiments.table1 import PAPER_ORDER
    from repro.workloads.spec import REGISTRY

    assert set(PAPER_ORDER) == set(REGISTRY)


def test_examples_compile():
    import py_compile

    for script in (ROOT / "examples").glob("*.py"):
        py_compile.compile(str(script), doraise=True)
