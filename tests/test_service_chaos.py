"""Daemon crash/restart chaos: SIGKILL ``repro serve`` mid-flight.

Extends the `test_checkpoint_chaos` pattern up one layer: instead of
one crashed run, a whole daemon dies with many sessions in flight, a
fresh daemon starts over the same service root, and every session must
resume and finish with a payload *bit-identical* to its standalone run
— page-version digest, attribution ledger and report included.

Sessions that died before their first cadence checkpoint simply
re-run from their (deterministic) config; sessions past it resume from
the newest archive — both paths must land on the same bits, and the
test deliberately kills early enough that the mix includes both.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import (
    MigrationConfig,
    MigrationManager,
    ServiceClient,
    run_standalone,
)

REPO = Path(__file__).resolve().parent.parent

CONFIGS = [
    MigrationConfig(workload="derby", mem_mb=512, young_mb=128, seed=7),
    MigrationConfig(workload="scimark", mem_mb=512, young_mb=128, seed=11),
    MigrationConfig(
        workload="derby", mem_mb=512, young_mb=128, seed=13, supervise=True
    ),
]


# -- in-process crash/recover (no sockets, exact checkpoint cadence) ----------------------


def test_manager_recover_resumes_every_inflight_session(tmp_path):
    """Abandon a manager mid-round (the in-process stand-in for a
    crash), rebuild over the same root, drain: every payload must match
    the standalone run, and the supervised session must have resumed
    through a real checkpoint (past warm-up, mid-supervision)."""
    root = str(tmp_path / "svc")
    manager = MigrationManager(
        root_dir=root, max_active=4, slice_s=0.25,
        checkpoint_every_s=1.0, checkpoint_overhead=None,
    )
    ids = [manager.submit(cfg) for cfg in CONFIGS]
    supervised_id = ids[2]
    # Step until the supervised session is past warm-up (6 s) and has
    # checkpoints on disk, so recovery exercises the restore path —
    # not just the deterministic re-run path.
    while True:
        manager.step_round()
        session = manager.session(supervised_id)
        if session.driver.engine.now > 7.0:
            break
    ckpt_dir = os.path.join(root, "sessions", supervised_id, "ckpts")
    assert any(n.startswith("ckpt-") for n in os.listdir(ckpt_dir))
    del manager  # the "crash": nothing in memory survives

    reborn = MigrationManager(
        root_dir=root, max_active=4, slice_s=0.25,
        checkpoint_every_s=1.0, checkpoint_overhead=None,
    )
    resumed = reborn.recover()
    assert set(resumed) == set(ids)
    reborn.drain()
    for sid, cfg in zip(ids, CONFIGS):
        payload = reborn.session(sid).result_payload
        assert payload == run_standalone(cfg), sid


def test_recover_refuses_a_config_mismatch(tmp_path):
    """A tampered session config must not resume someone else's
    checkpoints (the manifest hash check, surfaced per session)."""
    from repro.errors import CheckpointError

    root = str(tmp_path / "svc")
    manager = MigrationManager(
        root_dir=root, max_active=1, slice_s=0.25,
        checkpoint_every_s=0.5, checkpoint_overhead=None,
    )
    sid = manager.submit(CONFIGS[0])
    for _ in range(4):
        manager.step_round()
    del manager
    # Tamper: same session dir, different seed.
    session_json = os.path.join(root, "sessions", sid, "session.json")
    with open(session_json) as fh:
        record = json.load(fh)
    record["config"]["seed"] = 4242
    with open(session_json, "w") as fh:
        json.dump(record, fh)
    reborn = MigrationManager(
        root_dir=root, max_active=1, slice_s=0.25,
        checkpoint_every_s=0.5, checkpoint_overhead=None,
    )
    with pytest.raises(CheckpointError):
        reborn.recover()


# -- SIGKILL the real daemon --------------------------------------------------------------


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _spawn_daemon(root: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", "from repro.cli import main; raise SystemExit(main())",
         "serve", "--service-dir", root, "--max-active", "4",
         "--slice-s", "0.25", "--checkpoint-every", "1.0",
         "--checkpoint-budget", "0"],
        cwd=REPO, env=_cli_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def test_sigkill_daemon_restart_resumes_bit_identical(tmp_path):
    root = str(tmp_path / "svc")
    daemon = _spawn_daemon(root)
    client = ServiceClient(root)
    try:
        client.wait_ready()
        ids = [
            client.request("submit", config=cfg.to_dict())["id"]
            for cfg in CONFIGS
        ]
        # Let the fleet get genuinely mid-flight: at least one session
        # migrating, none finished would be ideal, but the invariant
        # holds regardless — wait for any RUNNING session to pass
        # warm-up so checkpoints exist, then kill without warning.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            sessions = client.request("list")["sessions"]
            past_warmup = [
                s for s in sessions
                if s["state"] == "running" and s.get("sim_now_s", 0) > 2.0
            ]
            if past_warmup:
                break
            time.sleep(0.01)
        assert past_warmup, sessions
    finally:
        daemon.kill()  # SIGKILL: no atexit, no cleanup, no flush
        daemon.wait(timeout=10)

    reborn = _spawn_daemon(root)
    try:
        client.wait_ready()
        for sid, cfg in zip(ids, CONFIGS):
            status = client.wait_terminal(sid, timeout_s=120)
            assert status["state"] == "done", status
            payload = client.request("finalize", id=sid)["result"]
            assert payload == run_standalone(cfg), sid
    finally:
        try:
            client.request("shutdown")
            reborn.wait(timeout=10)
        except Exception:
            reborn.kill()
            reborn.wait(timeout=10)


def test_sigkill_survives_a_second_kill_during_resume(tmp_path):
    """Crash, restart, crash again mid-resume, restart: still
    bit-identical (checkpoint archives are append-only and atomic)."""
    root = str(tmp_path / "svc")
    config = CONFIGS[0]
    daemon = _spawn_daemon(root)
    client = ServiceClient(root)
    try:
        client.wait_ready()
        sid = client.request("submit", config=config.to_dict())["id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = client.request("status", id=sid)["session"]
            if status["state"] == "running" and status.get("sim_now_s", 0) > 2.0:
                break
            time.sleep(0.01)
    finally:
        daemon.kill()
        daemon.wait(timeout=10)

    second = _spawn_daemon(root)
    client.wait_ready()
    second.send_signal(signal.SIGKILL)  # die again almost immediately
    second.wait(timeout=10)

    third = _spawn_daemon(root)
    try:
        client.wait_ready()
        status = client.wait_terminal(sid, timeout_s=120)
        assert status["state"] == "done"
        payload = client.request("finalize", id=sid)["result"]
        assert payload == run_standalone(config)
    finally:
        try:
            client.request("shutdown")
            third.wait(timeout=10)
        except Exception:
            third.kill()
            third.wait(timeout=10)
