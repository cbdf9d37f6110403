"""Correctness checks and failure accounting for the benchmark.

Every operation the benchmark attempts (a migration, a heap profile, a
session, a control verb) goes through :class:`Ledger`, which counts it
and records why it failed.  The checks are plain functions over the
program's outputs so the self-tests can feed them corrupted inputs.
"""

from __future__ import annotations

import hashlib
import json


class Ledger:
    """Attempted and failed operations, with the failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        """Count one operation; it failed when *problems* is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append(f"{what}: {'; '.join(problems)}")
        return not problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def digest(obj) -> str:
    """sha256 of *obj*'s canonical JSON (sorted keys, repr for others)."""
    blob = json.dumps(obj, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class DigestBook:
    """Per-item digests; every pass of a run must repeat the first."""

    def __init__(self) -> None:
        self.first: dict[str, str] = {}

    def problems(self, item: str, value: str) -> list[str]:
        seen = self.first.setdefault(item, value)
        if seen != value:
            return [f"digest {value[:12]} differs from first pass {seen[:12]}"]
        return []


def report_problems(report: dict) -> list[str]:
    """Why a migration report (``MigrationReport.to_dict()``) is wrong."""
    from repro.telemetry.attribution import AttributionAuditError, assert_conserved

    problems = []
    if report.get("verified") is not True:
        problems.append(f"verified={report.get('verified')!r}")
    if report.get("violating_pages", 0) != 0:
        problems.append(f"violating_pages={report.get('violating_pages')}")
    try:
        assert_conserved(report)
    except AttributionAuditError as exc:
        problems.append(f"attribution not conserved: {exc}")
    return problems


def payload_problems(payload: dict, supervised: bool) -> list[str]:
    """Why a session's ``finalize`` payload is not a verified migration."""
    problems = []
    if payload.get("ok") is not True:
        problems.append(f"ok={payload.get('ok')!r}")
    if payload.get("conservation_violations"):
        problems.append("conservation violations in payload")
    report = payload.get("report") if supervised else payload
    if not isinstance(report, dict):
        return problems + ["no report in payload"]
    return problems + report_problems(report)
