"""One-call convenience API.

For scripts and notebooks that want a single line::

    from repro.core import migrate
    report = migrate("derby", "javmm")
    print(report.summary())
"""

from __future__ import annotations

from repro.core.experiment import ExperimentResult, MigrationExperiment
from repro.migration.report import MigrationReport
from repro.units import GiB


def migrate(*args, **kwargs) -> MigrationReport:
    """Run one migration with the paper's defaults; returns its report.

    Takes the arguments of :func:`migrate_full`.
    """
    return migrate_full(*args, **kwargs).report


def migrate_full(
    workload: str = "derby",
    engine: str = "javmm",
    mem_bytes: int = GiB(2),
    max_young_bytes: int = GiB(1),
    warmup_s: float = 15.0,
    seed: int = 20150421,
    **kwargs,
) -> ExperimentResult:
    """Run one migration with the paper's defaults (extra keyword
    arguments reach :class:`MigrationExperiment`); returns the full
    experiment result."""
    return MigrationExperiment(
        workload=workload,
        engine=engine,
        mem_bytes=mem_bytes,
        max_young_bytes=max_young_bytes,
        warmup_s=warmup_s,
        seed=seed,
        **kwargs,
    ).run()
