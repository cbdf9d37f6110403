"""Migration sessions: one controllable migration, steppable in slices.

A :class:`MigrationSession` wraps the bounded-slice drivers from
:mod:`repro.core` — :class:`~repro.core.experiment.ExperimentRun` for a
plain migration, :class:`~repro.core.supervisor.SupervisedRun` for a
supervised one — behind the control-verb surface the manager (and the
``repro ctl`` socket protocol) exposes:

``submit → (admit) → running ⇄ paused → done | aborted | failed →
finalized``

The correctness contract is the repo's standard one: because a session
only ever *tightens* engine-advance bounds at slice boundaries (the
PR 6 invariant), a session's final report, page-version array and
attribution ledger are bit-identical to the same
:class:`~repro.core.config.MigrationConfig` run standalone through
:func:`run_standalone` — the kernel-equivalence suite and
``bench_pr10_service.py`` both enforce the digest equality.

Everything durable lives under the session's directory::

    <root>/sessions/<id>/
        session.json     admin record (config + lifecycle state)
        telemetry.jsonl  the session's live progress feed (PR 9 sink)
        ckpts/           cadence checkpoints + write-ahead journal
        result.json      final payload, written once, survives restarts
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.core.config import MigrationConfig
from repro.errors import ConfigurationError

# -- lifecycle states -------------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
PAUSED = "paused"
DONE = "done"
ABORTED = "aborted"
FAILED = "failed"
FINALIZED = "finalized"

#: states a session can still make progress from
ACTIVE_STATES = (RUNNING, PAUSED)
#: states with a result payload ready for ``finalize``
TERMINAL_STATES = (DONE, ABORTED, FAILED)


class SessionError(ConfigurationError):
    """An illegal control verb for the session's current state."""


# -- payloads and digests ---------------------------------------------------------------


def run_digest(vm, report) -> str:
    """sha256 over page versions + analyzer samples + report JSON.

    Equal digests mean two runs ended in bit-identical simulated state;
    sessions are compared to their standalone twins (and a resumed
    daemon to an unkilled one) across process boundaries this way.
    """
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    pages = vm.domain.read_pages(np.arange(vm.domain.n_pages))
    h.update(pages.tobytes())
    for sample in vm.analyzer.samples:
        h.update(repr(sample).encode("utf-8"))
    if report is not None:
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def attribute_reports(reports, link=None) -> tuple[list[dict], list[str]]:
    """Ledgers plus every conservation violation for one run's reports.

    With *link* its meter is reconciled too: when the caller owns the
    link for the whole run, the meter's category totals must match the
    summed report ledgers exactly.
    """
    from repro.telemetry.attribution import attribute_report, audit_meter

    reports = [report for report in reports if report is not None]
    ledgers, violations = [], []
    for report in reports:
        led = attribute_report(report)
        ledgers.append(led.to_dict())
        violations.extend(f"attempt {led.attempt}: {v}" for v in led.violations)
    if link is not None:
        violations.extend(f"meter: {v}" for v in audit_meter(link.meter, reports))
    return ledgers, violations


def experiment_payload(result, vm, link=None, digest: bool = True) -> dict:
    """The JSON result of a plain run: ``repro migrate --json`` prints
    it and a plain session finalizes to it, so reports diff 1:1."""
    ledgers, violations = attribute_reports([result.report], link)
    payload = result.report.to_dict()
    payload["workload"] = result.workload
    payload["engine"] = result.engine
    payload["observed_app_downtime_s"] = result.observed_app_downtime_s
    payload["attribution"] = ledgers
    payload["conservation_violations"] = violations
    if digest:
        payload["final_digest"] = run_digest(vm, result.report)
    payload["ok"] = bool(result.report.verified)
    return payload


def supervised_payload(result, vm, link=None, digest: bool = True) -> dict:
    """The JSON result of a supervised run: ``repro migrate --supervise
    --json`` prints it and a supervised session finalizes to it."""
    ledgers, violations = attribute_reports(
        [rec.report for rec in result.attempts], link
    )
    payload = {
        "ok": result.ok,
        "engine": result.engine,
        "n_attempts": result.n_attempts,
        "engines_tried": result.degradations,
        "attempts": [
            {
                "attempt": rec.attempt,
                "engine": rec.engine,
                "aborted": rec.aborted,
                "reason": rec.reason,
                "waited_before_s": rec.waited_before_s,
            }
            for rec in result.attempts
        ],
        "report": result.report.to_dict() if result.report else None,
        "rescues": list(result.rescues),
        "attribution": ledgers,
        "conservation_violations": violations,
    }
    if digest:
        payload["final_digest"] = run_digest(vm, result.report)
    return payload


def run_standalone(config: MigrationConfig) -> dict:
    """Run *config* to completion in-process, no manager, no slicing.

    The equivalence oracle: a session's ``result.json`` must be
    bit-identical to this function's return for the same config.
    """
    driver = config.build_driver()
    payload = supervised_payload if config.supervise else experiment_payload
    return payload(driver.run(), driver.vm)


# -- the session ------------------------------------------------------------------------


@dataclass
class _Admin:
    """What session.json persists besides the config."""

    id: str
    state: str = QUEUED
    error: str = ""
    finalized: bool = False


class MigrationSession:
    """One migration as a first-class, controllable session.

    The manager admits it (:meth:`start`), steps it in bounded slices
    (:meth:`step_slice`), and routes control verbs at it.  All durable
    state lives under :attr:`directory`; the in-memory object can be
    rebuilt from disk at any time (:meth:`load`), which is exactly what
    a restarted daemon does.
    """

    def __init__(
        self,
        session_id: str,
        config: MigrationConfig,
        directory: str | None = None,
        checkpoint_every_s: float | None = None,
        checkpoint_overhead: float | None = 0.03,
    ) -> None:
        self.id = session_id
        self.config = config
        #: what session.json records (kept as loaded when it no longer
        #: validates)
        self._config_record = config.to_dict() if config is not None else {}
        self.directory = directory
        self.checkpoint_every_s = checkpoint_every_s
        self.checkpoint_overhead = checkpoint_overhead
        self._admin = _Admin(id=session_id)
        self.driver = None
        self.checkpointer = None
        self._sink = None
        self.result_payload: dict | None = None
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._persist_admin()

    # -- durable admin record -----------------------------------------------------------

    @property
    def state(self) -> str:
        if self._admin.finalized:
            return FINALIZED
        return self._admin.state

    @property
    def error(self) -> str:
        return self._admin.error

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _persist_admin(self) -> None:
        if self.directory is None:
            return
        record = {
            "id": self.id,
            "config": self._config_record,
            "state": self._admin.state,
            "error": self._admin.error,
            "finalized": self._admin.finalized,
        }
        tmp = self._path("session.json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._path("session.json"))

    @classmethod
    def load(
        cls,
        directory: str,
        checkpoint_every_s: float | None = None,
        checkpoint_overhead: float | None = 0.03,
    ) -> "MigrationSession":
        """Rebuild a session from its directory (daemon restart).

        A record whose config no longer validates loads with no config;
        if it had not finished yet, it fails with the validation message.
        """
        with open(os.path.join(directory, "session.json"), encoding="utf-8") as fh:
            record = json.load(fh)
        raw = record.get("config")
        try:
            config, invalid = MigrationConfig.from_dict(raw), None
        except ConfigurationError as exc:
            config, invalid = None, f"invalid config: {exc}"
        session = cls(
            record["id"],
            config,
            checkpoint_every_s=checkpoint_every_s,
            checkpoint_overhead=checkpoint_overhead,
        )
        session.directory = directory
        session._config_record = raw if isinstance(raw, dict) else {}
        session._admin = _Admin(
            id=record["id"],
            state=record["state"],
            error=record.get("error", ""),
            finalized=record.get("finalized", False),
        )
        result_path = os.path.join(directory, "result.json")
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                session.result_payload = json.load(fh)
        if invalid and session._admin.state not in TERMINAL_STATES:
            session._fail(invalid)
        return session

    # -- lifecycle ----------------------------------------------------------------------

    def _make_sink(self):
        if not self.config.telemetry or self.directory is None:
            return None
        from repro.telemetry.live import JsonlSink

        return JsonlSink(self._path("telemetry.jsonl"), flush="line")

    def _make_checkpointer(self):
        if self.checkpoint_every_s is None or self.directory is None:
            return None
        from repro.checkpoint import CheckpointConfig, Checkpointer

        return Checkpointer(
            CheckpointConfig(
                directory=self._path("ckpts"),
                every_s=self.checkpoint_every_s,
                config=self.config.fingerprint(),
                max_overhead=self.checkpoint_overhead,
            )
        )

    def start(self) -> None:
        """Admit the session: configure the simulation, go RUNNING."""
        if self._admin.state != QUEUED:
            raise SessionError(
                f"session {self.id} cannot start from state {self.state}"
            )
        self._sink = self._make_sink()
        try:
            self.driver = self.config.build_driver(sink=self._sink)
            self.checkpointer = self._make_checkpointer()
        except Exception as exc:  # noqa: BLE001 — a config that cannot
            # even build fails its session, not the daemon.
            self._fail(f"{type(exc).__name__}: {exc}")
            return
        self._admin.state = RUNNING
        self._persist_admin()

    def recover(self) -> None:
        """Restart path: rebuild the live driver for an ACTIVE session.

        With checkpoints on disk the driver resumes from the newest one
        (config-hash checked); without any — the daemon died before the
        first cadence write — the session rebuilds from its config,
        which is deterministic and therefore lands in the same place.
        """
        if self._admin.state not in ACTIVE_STATES:
            return
        ckpt_dir = self._path("ckpts")
        restored = None
        if os.path.isdir(ckpt_dir) and any(
            name.startswith("ckpt-") for name in os.listdir(ckpt_dir)
        ):
            from repro.checkpoint import resume

            restored = resume(ckpt_dir, expect_config=self.config.fingerprint())
        if restored is None:
            self._sink = self._make_sink()
            self.driver = self.config.build_driver(sink=self._sink)
        else:
            controller = restored.controller
            if self.config.supervise:
                from repro.core.supervisor import SupervisedRun

                self.driver = SupervisedRun.from_supervisor(controller)
            else:
                self.driver = controller
            # The pickled graph carries the session's JsonlSink; it
            # reopened itself append-mode on restore.
            self._sink = getattr(self.driver.vm.probe, "sink", None)
        self.checkpointer = self._make_checkpointer()

    def step_slice(self, slice_s: float) -> bool:
        """Advance one cooperative slice; True when the session left
        the RUNNING state (done, aborted or failed)."""
        if self._admin.state != RUNNING:
            return self._admin.state != PAUSED
        driver = self.driver
        try:
            finished = driver.step(driver.engine.now + slice_s, self.checkpointer)
        except Exception as exc:  # noqa: BLE001 — session isolation:
            # one blown simulation must not take the daemon down.
            self._fail(f"{type(exc).__name__}: {exc}")
            return True
        if finished:
            self._complete()
            return True
        return False

    def _fail(self, error: str) -> None:
        self._admin.state = FAILED
        self._admin.error = error
        self._write_result({"ok": False, "failed": True, "error": error})
        self._close_sink()
        self._persist_admin()

    def _complete(self) -> None:
        driver = self.driver
        if self.config.supervise:
            payload = supervised_payload(driver.result, driver.vm)
            ok = driver.result.ok
        else:
            payload = experiment_payload(driver.result, driver.vm)
            ok = True
        self._write_result(payload)
        self._admin.state = DONE if ok else ABORTED
        self._close_sink()
        self._persist_admin()

    def _write_result(self, payload: dict) -> None:
        self.result_payload = payload
        if self.directory is None:
            return
        tmp = self._path("result.json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._path("result.json"))

    def _close_sink(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    # -- control verbs ------------------------------------------------------------------

    def pause(self) -> None:
        """Freeze the session's simulated clock; slices skip it."""
        if self._admin.state != RUNNING:
            raise SessionError(
                f"session {self.id} cannot pause from state {self.state}"
            )
        self._admin.state = PAUSED
        self._persist_admin()

    def resume(self) -> None:
        if self._admin.state != PAUSED:
            raise SessionError(
                f"session {self.id} cannot resume from state {self.state}"
            )
        self._admin.state = RUNNING
        self._persist_admin()

    def _live_migrator(self):
        """The migrator currently in flight, or None."""
        driver = self.driver
        if driver is None:
            return None
        if self.config.supervise:
            supervisor = driver.supervisor
            return None if supervisor is None else supervisor._migrator
        migrator = driver.migrator
        if migrator is None or driver.phase != "migrate":
            return None
        return migrator

    def stop_and_copy(self) -> None:
        """Force the in-flight migration into stop-and-copy at the next
        iteration boundary (the mini-cloud controller's verb)."""
        migrator = self._live_migrator()
        if migrator is None or not hasattr(migrator, "request_stop_and_copy"):
            raise SessionError(
                f"session {self.id} has no migration iterating "
                f"(state {self.state})"
            )
        migrator.request_stop_and_copy()

    def abort(self, reason: str = "operator abort") -> None:
        """Kill the session.  An in-flight migration is aborted cleanly
        (LKM rollback, source keeps the guest) before the session is
        marked ABORTED; a queued session just never starts."""
        if self._admin.state in TERMINAL_STATES or self._admin.finalized:
            raise SessionError(
                f"session {self.id} cannot abort from state {self.state}"
            )
        migrator = self._live_migrator()
        report = None
        if migrator is not None and not migrator.finished:
            migrator.abort(self.driver.engine.now, reason)
            report = migrator.report
        self._admin.state = ABORTED
        self._admin.error = reason
        payload: dict = {"ok": False, "aborted": True, "reason": reason}
        if report is not None:
            payload["report"] = report.to_dict()
        if self.driver is not None:
            payload["final_digest"] = run_digest(self.driver.vm, report)
        self._write_result(payload)
        self._close_sink()
        self._persist_admin()

    def finalize(self) -> dict:
        """Collect the result and retire the session.  One-shot: a
        second finalize is an error (the double-finalize contract)."""
        if self._admin.finalized:
            raise SessionError(f"session {self.id} is already finalized")
        if self._admin.state not in TERMINAL_STATES:
            raise SessionError(
                f"session {self.id} cannot finalize from state {self.state} "
                "(abort it first, or wait for it to finish)"
            )
        if self.result_payload is None:
            raise SessionError(f"session {self.id} has no result payload")
        self._admin.finalized = True
        self._persist_admin()
        return self.result_payload

    # -- status -------------------------------------------------------------------------

    def status(self) -> dict:
        # the persisted record also describes a no-longer-valid config
        spec = self._config_record
        supervised = spec.get("supervise") is True
        info = {
            "id": self.id,
            "name": spec.get("name", ""),
            "workload": spec.get("workload"),
            "engine": spec.get("engine"),
            "supervise": supervised,
            "state": self.state,
            "error": self._admin.error,
        }
        driver = self.driver
        if driver is not None:
            info["sim_now_s"] = driver.engine.now
            info["phase"] = getattr(driver, "phase", None)
            if supervised and driver.supervisor is not None:
                info["attempt"] = driver.supervisor._attempt
        if self.result_payload is not None:
            info["ok"] = self.result_payload.get("ok")
            report = (
                self.result_payload.get("report")
                if supervised
                else self.result_payload
            )
            if isinstance(report, dict) and "completion_time_s" in report:
                info["completion_time_s"] = report.get("completion_time_s")
                info["vm_downtime_s"] = report.get("downtime", {}).get(
                    "vm_downtime_s"
                )
        return info
