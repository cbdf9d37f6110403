"""Protocol fuzzing: the service socket always answers, exactly once.

Random JSON values for ``op``, ``id``, ``reason`` and every config
field, wrong types, unknown fields, and verbs sent in the wrong session
state all go through :meth:`ServiceDaemon.handle`; one oversized line
and one non-UTF-8 line go through a real socket.  Invariants:

- every request gets exactly one reply, a JSON object with a boolean
  ``ok`` (and a string ``error`` when it is false);
- ``ping`` still answers afterwards.

Plus the table tests for :class:`MigrationConfig` itself: every rejected
value names its field, ``to_dict``/``from_dict`` round-trip, the
benchmark's session mix validates, and a ``session.json`` record in the
pre-``MigrationConfig`` format loads (or, when its config no longer
validates, fails its session instead of the daemon).
"""

from __future__ import annotations

import json
import math
import os
import socket
import tempfile
import threading
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MigrationConfig
from repro.core.builders import ENGINE_NAMES
from repro.errors import ConfigurationError
from repro.net import WAN_PROFILES
from repro.service import MigrationManager, MigrationSession, ServiceClient, protocol
from repro.service.server import ServiceDaemon
from repro.sim.engine import KERNELS
from repro.workloads.spec import REGISTRY

REPO = Path(__file__).resolve().parent.parent
FIELDS = [f.name for f in fields(MigrationConfig)]


# -- MigrationConfig table tests ----------------------------------------------------------

REJECTED = [
    ({"workload": "nope"}, "workload"),
    ({"workload": 5}, "workload"),
    ({"engine": "bogus"}, "engine"),
    ({"engine": None}, "engine"),
    ({"kernel": "warp"}, "kernel"),
    ({"wan": "mars"}, "wan"),
    ({"wan": ""}, "wan"),
    ({"mem_mb": "lots"}, "mem_mb"),
    ({"mem_mb": True, "young_mb": 0}, "mem_mb"),
    ({"mem_mb": 512.0}, "mem_mb"),
    ({"mem_mb": 0}, "mem_mb"),
    ({"young_mb": 0}, "young_mb"),
    ({"mem_mb": 256, "young_mb": 64}, "young_mb"),
    ({"warmup_s": -5}, "warmup_s"),
    ({"warmup_s": math.inf}, "warmup_s"),
    ({"cooldown_s": -0.5}, "cooldown_s"),
    ({"dt": 0}, "dt"),
    ({"dt": math.nan}, "dt"),
    ({"dt": False}, "dt"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"migration_timeout_s": 0}, "migration_timeout_s"),
    ({"migration_timeout_s": math.inf}, "migration_timeout_s"),
    ({"supervise": 1}, "supervise"),
    ({"max_attempts": 0}, "max_attempts"),
    ({"max_attempts": True}, "max_attempts"),
    ({"telemetry": "yes"}, "telemetry"),
    ({"name": "x" * 300}, "name"),
    ({"name": 7}, "name"),
]


@pytest.mark.parametrize("overrides,field", REJECTED)
def test_rejected_config_names_its_field(overrides, field):
    with pytest.raises(ConfigurationError) as info:
        MigrationConfig(**overrides)
    assert str(info.value).startswith(f"{field}: "), str(info.value)
    with pytest.raises(ConfigurationError, match=f"^{field}: "):
        MigrationConfig.from_dict(overrides)


def test_from_dict_rejects_non_objects_and_unknown_fields():
    for data in ([1, 2], "derby", None, 5):
        with pytest.raises(ConfigurationError, match="^config: "):
            MigrationConfig.from_dict(data)
    with pytest.raises(ConfigurationError, match="unknown config fields: vcpus"):
        MigrationConfig.from_dict({"vcpus": 4})


@pytest.mark.parametrize("config", [
    MigrationConfig(),
    MigrationConfig(workload="scimark", engine="auto", mem_mb=2048, young_mb=1024,
                    warmup_s=20.0, cooldown_s=10.0, kernel="event", seed=0),
    MigrationConfig(wan="continental", max_attempts=1, telemetry=False, name="w"),
    MigrationConfig(engine="javmm+compress", warmup_s=0, dt=1, migration_timeout_s=5),
])
def test_to_dict_from_dict_round_trips(config):
    record = json.loads(json.dumps(config.to_dict()))
    assert list(record) == FIELDS
    assert MigrationConfig.from_dict(record) == config
    assert MigrationConfig.from_dict(record).to_dict() == record


def test_wan_implies_supervise_in_the_record():
    config = MigrationConfig(wan="metro")
    assert config.supervise and config.to_dict()["supervise"] is True
    with pytest.raises(AttributeError):
        config.supervise = False  # frozen


def test_benchmark_session_mix_validates(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    from workloads import session_config

    for seed in (1, 2):
        for k in range(32):
            config = MigrationConfig.from_dict(session_config(seed, k))
            assert config.to_dict() == {**MigrationConfig().to_dict(),
                                        **session_config(seed, k),
                                        "supervise": "wan" in session_config(seed, k)}


#: a session.json exactly as the pre-MigrationConfig daemon wrote it
LEGACY_RECORD = {
    "config": {
        "cooldown_s": 3.0, "dt": 0.005, "engine": "xen", "kernel": "event",
        "max_attempts": 4, "mem_mb": 512, "migration_timeout_s": 600.0,
        "name": "b3", "seed": 12345, "supervise": True, "telemetry": True,
        "wan": "metro", "warmup_s": 6.0, "workload": "crypto", "young_mb": 128,
    },
    "error": "",
    "finalized": False,
    "id": "s0004-b3",
    "state": "done",
}


def _write_record(root: Path, record: dict) -> Path:
    directory = root / "sessions" / record["id"]
    directory.mkdir(parents=True)
    (directory / "session.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    return directory


def test_legacy_session_record_loads(tmp_path):
    directory = _write_record(tmp_path, LEGACY_RECORD)
    session = MigrationSession.load(str(directory))
    assert session.config == MigrationConfig(**LEGACY_RECORD["config"])
    assert session.state == "done"
    assert session.status()["workload"] == "crypto"
    assert session.status()["supervise"] is True


def test_recover_fails_a_session_whose_config_no_longer_validates(tmp_path):
    bad = {**LEGACY_RECORD, "id": "s0001-bad", "state": "running",
           "config": {**LEGACY_RECORD["config"], "warmup_s": -5}}
    finished = {**LEGACY_RECORD, "id": "s0002-old",
                "config": {**LEGACY_RECORD["config"], "workload": "nope"}}
    _write_record(tmp_path, bad)
    _write_record(tmp_path, finished)
    manager = MigrationManager(root_dir=str(tmp_path))
    assert manager.recover() == []
    failed = manager.status("s0001-bad")
    assert failed["state"] == "failed"
    assert failed["error"].startswith("invalid config: warmup_s: ")
    assert manager.finalize("s0001-bad")["failed"] is True
    # a finished session keeps its state; only its config is unusable
    assert manager.status("s0002-old")["state"] == "done"
    reborn = MigrationManager(root_dir=str(tmp_path))
    reborn.recover()
    assert reborn.status("s0001-bad")["state"] == "finalized"


# -- handle(): every request gets one reply -------------------------------------------------

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=80)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=10), inner, max_size=4),
    max_leaves=8,
)
#: values a field accepts, so fuzzed configs are sometimes valid
GOOD = {
    "workload": st.sampled_from(sorted(REGISTRY)),
    "engine": st.sampled_from(ENGINE_NAMES + ("auto",)),
    "mem_mb": st.integers(min_value=512, max_value=4096),
    "young_mb": st.integers(min_value=1, max_value=256),
    "warmup_s": st.floats(min_value=0, max_value=60),
    "cooldown_s": st.floats(min_value=0, max_value=60),
    "dt": st.sampled_from([0.005, 0.01, 1]),
    "kernel": st.sampled_from((None,) + KERNELS),
    "seed": st.integers(min_value=0, max_value=2**64),
    "migration_timeout_s": st.floats(min_value=1, max_value=600),
    "supervise": st.booleans(),
    "wan": st.sampled_from([None] + sorted(WAN_PROFILES)),
    "max_attempts": st.integers(min_value=1, max_value=8),
    "telemetry": st.booleans(),
    "name": st.text(max_size=64),
}
CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        **{name: good | JSON_VALUES for name, good in GOOD.items()},
        "vcpus": JSON_VALUES,
        "": JSON_VALUES,
    },
) | JSON_VALUES


@st.composite
def requests(draw):
    op = draw(st.sampled_from(protocol.VERBS) | JSON_VALUES)
    request = {"op": op}
    if draw(st.booleans()):
        request["id"] = draw(st.sampled_from(["known", "s9999-none"]) | JSON_VALUES)
    if draw(st.booleans()):
        request["reason"] = draw(st.text(max_size=20) | JSON_VALUES)
    if op == "submit" or draw(st.booleans()):
        request["config"] = draw(CONFIGS)
    if draw(st.booleans()):
        request[draw(st.text(max_size=10))] = draw(JSON_VALUES)
    return request


@pytest.fixture(scope="module")
def daemon():
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as root:
        yield ServiceDaemon(MigrationManager(root_dir=root))


def _assert_reply(reply) -> None:
    # exactly one JSON-encodable object with a boolean ok
    assert isinstance(reply, dict)
    assert isinstance(reply["ok"], bool)
    if not reply["ok"]:
        assert isinstance(reply["error"], str) and reply["error"]
    protocol.decode(protocol.encode(reply))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(script=st.lists(requests(), min_size=1, max_size=6))
def test_every_request_gets_one_reply(daemon, script):
    known = None
    for request in script:
        if request.get("id") == "known" and known is not None:
            request["id"] = known  # a real session, in whatever state it is
        wire = protocol.decode(protocol.encode(request))  # what the socket hands over
        reply = daemon.handle(wire)
        _assert_reply(reply)
        if request["op"] == "submit" and reply["ok"]:
            known = reply["id"]
        if request["op"] == "submit" and not reply["ok"]:
            # refused only for a non-string id/reason or a bad config
            if all(isinstance(request.get(k), (str, type(None))) for k in ("id", "reason")):
                with pytest.raises(ConfigurationError):
                    MigrationConfig.from_dict(request.get("config", {}))
    assert daemon.handle({"op": "ping"})["pong"] is True


@pytest.mark.parametrize("request_,error", [
    ({"op": "submit", "config": [1, 2]}, "config: "),
    ({"op": "submit", "config": {"workload": 5}}, "workload: "),
    ({"op": "submit", "config": {"workload": "nope"}}, "workload: "),
    ({"op": "submit", "config": {"engine": "bogus"}}, "engine: "),
    ({"op": "submit", "config": {"warmup_s": -5}}, "warmup_s: "),
    ({"op": "submit", "config": {"mem_mb": "lots"}}, "mem_mb: "),
    ({"op": "submit", "config": {"dt": 0}}, "dt: "),
    ({"op": "submit", "config": {"kernel": "warp"}}, "kernel: "),
    ({"op": "submit", "config": {"wan": "mars"}}, "wan: "),
    ({"op": "submit", "config": {"mem_mb": True, "young_mb": 0}}, "mem_mb: "),
    ({"op": "submit", "config": {"name": "x" * 300}}, "name: "),
    ({"op": "status", "id": [1]}, "id must be a string"),
    ({"op": "pause", "id": {}}, "id must be a string"),
    ({"op": "abort", "id": "s0001-x", "reason": 3}, "reason must be a string"),
    ({"op": ["ping"]}, "unknown op"),
])
def test_bad_requests_are_answered_naming_the_field(daemon, request_, error):
    reply = daemon.handle(request_)
    assert reply["ok"] is False
    assert reply["error"].startswith(error), reply


def test_verbs_in_the_wrong_state_are_errors(daemon):
    sid = daemon.handle({"op": "submit", "config": {"name": "wrong-state"}})["id"]
    for op in ("pause", "resume", "stop_and_copy", "finalize"):
        reply = daemon.handle({"op": op, "id": sid})
        assert reply["ok"] is False and sid in reply["error"], (op, reply)
    assert daemon.handle({"op": "abort", "id": sid})["ok"] is True
    assert daemon.handle({"op": "abort", "id": sid})["ok"] is False
    assert daemon.handle({"op": "finalize", "id": sid})["result"]["aborted"]
    assert daemon.handle({"op": "finalize", "id": sid})["ok"] is False


# -- the real socket: oversized and non-UTF-8 lines ---------------------------------------


def _reply(sock_file) -> dict:
    line = sock_file.readline()
    assert line.endswith(b"\n")
    return protocol.decode(line)


def test_socket_answers_oversized_and_undecodable_lines(tmp_path):
    root = str(tmp_path / "svc")
    os.makedirs(root)
    daemon = ServiceDaemon(MigrationManager(root_dir=root))
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    client = ServiceClient(root, timeout_s=10.0)
    try:
        client.wait_ready(timeout_s=20.0)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(client.socket_path)
            stream = sock.makefile("rb")
            for line in (
                b'{"op": "ping", "pad": "' + b"x" * 300_000 + b'"}\n',
                b"\xff\xfe{\n",
                b"[[[[\n",
                b'{"op": "ping"}\n',
            ):
                sock.sendall(line)
                reply = _reply(stream)
                assert isinstance(reply["ok"], bool)
                if line.startswith(b'{"op": "ping"}'):
                    assert reply["pong"] is True
                else:
                    assert reply["ok"] is False
                    assert reply["error"].startswith("bad request")
        assert client.request("ping")["pong"] is True
    finally:
        try:
            client.request("shutdown")
        finally:
            thread.join(timeout=20.0)
    assert not thread.is_alive()
