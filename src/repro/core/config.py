"""One migration, described once: the validated :class:`MigrationConfig`.

CLI flags (``repro migrate``/``trace``/``ctl submit``), the socket's
``submit`` and a daemon's persisted ``session.json`` all build one, and
every driver the CLI and the service run comes out of its
:meth:`~MigrationConfig.build_driver`.  Construction validates names,
types and ranges, raising :class:`~repro.errors.ConfigurationError`
naming the field before any guest is assembled.  The Python-API drivers
keep their own signatures: they take object-valued knobs (a link, a
fault plan, ``vm_kwargs``) that a JSON config cannot carry.
"""

import math
from dataclasses import asdict, dataclass, fields

from repro.core.builders import ENGINE_NAMES, default_max_old_bytes
from repro.core.experiment import ExperimentRun, MigrationExperiment
from repro.core.supervisor import SupervisedRun, supervised_config_fingerprint
from repro.errors import ConfigurationError
from repro.net.wan import WAN_PROFILES, wan_link
from repro.sim.engine import KERNELS
from repro.units import MiB
from repro.workloads.spec import REGISTRY

#: longest operator label (it also names the session directory)
MAX_NAME_CHARS = 64


def _show(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _check(ok: bool, name: str, problem: str) -> None:
    if not ok:
        raise ConfigurationError(f"{name}: {problem}")


@dataclass(frozen=True)
class MigrationConfig:
    """The JSON-shaped description of one migration to run.

    Memory sizes are MiB, times are simulated seconds.  The defaults are
    the service's (a 512 MiB guest, 6 s warm-up); the CLI states its own
    per-verb warm-up and cool-down explicitly.
    """

    workload: str = "derby"
    engine: str = "javmm"
    mem_mb: int = 512
    young_mb: int = 128
    warmup_s: float = 6.0
    cooldown_s: float = 3.0
    dt: float = 0.005
    kernel: str | None = None
    seed: int = 20150421
    migration_timeout_s: float = 600.0
    #: drive through MigrationSupervisor (retry/backoff/degrade/rescue)
    supervise: bool = False
    #: WAN profile name (implies supervise; matches ``repro migrate --wan``)
    wan: str | None = None
    max_attempts: int = 4
    #: stream spans/samples/events to the session's telemetry.jsonl
    telemetry: bool = True
    #: free-form operator label, surfaced by status/watch
    name: str = ""

    def __post_init__(self) -> None:
        for f in fields(self):
            # JSON numbers: a float field takes an int too; a bool is
            # never a number
            kind = (int, float) if f.type is float else f.type
            value = getattr(self, f.name)
            label = "number" if f.type is float else getattr(kind, "__name__", kind)
            _check(
                isinstance(value, kind)
                and (f.type is bool or not isinstance(value, bool)),
                f.name, f"expected {label}, got {_show(value)}",
            )
        for name, known in (
            ("workload", REGISTRY),
            ("engine", ENGINE_NAMES + ("auto",)),
            ("kernel", KERNELS),
            ("wan", WAN_PROFILES),
        ):
            value = getattr(self, name)
            if value is not None:
                _check(value in known, name,
                       f"unknown {name} {_show(value)}; known: "
                       + ", ".join(sorted(known)))
        inf = math.inf  # NaN fails every comparison
        for name, ok, want in (
            ("mem_mb", self.mem_mb >= 1, ">= 1"),
            ("young_mb", self.young_mb >= 1, ">= 1"),
            ("warmup_s", 0 <= self.warmup_s < inf, "finite and >= 0"),
            ("cooldown_s", 0 <= self.cooldown_s < inf, "finite and >= 0"),
            ("dt", 0 < self.dt < inf, "finite and > 0"),
            ("seed", self.seed >= 0, ">= 0"),
            ("migration_timeout_s", 0 < self.migration_timeout_s < inf,
             "finite and > 0"),
            ("max_attempts", self.max_attempts >= 1, ">= 1"),
        ):
            _check(ok, name, f"must be {want}, got {getattr(self, name)}")
        _check(
            default_max_old_bytes(MiB(self.mem_mb), MiB(self.young_mb)) > 0,
            "young_mb",
            f"no room for an Old generation: a {self.young_mb} MiB Young "
            f"maximum in a {self.mem_mb} MiB VM (mem_mb)",
        )
        _check(len(self.name) <= MAX_NAME_CHARS, "name",
               f"at most {MAX_NAME_CHARS} characters, got {len(self.name)}")
        if self.wan is not None:
            object.__setattr__(self, "supervise", True)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> "MigrationConfig":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"config: expected a JSON object, got {_show(data)}"
            )
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(
                f"unknown config fields: {', '.join(sorted(map(str, unknown)))}"
            )
        return cls(**data)

    # -- the builders the CLI, the session and the standalone twin share ----------------

    def vm_kwargs(self) -> dict:
        return {
            "mem_bytes": MiB(self.mem_mb),
            "max_young_bytes": MiB(self.young_mb),
        }

    def fingerprint(self) -> dict:
        """The scalar config hashed into this run's checkpoint
        manifests, so a restarted daemon refuses to resume a session
        directory into a different config."""
        if self.supervise:
            fp = supervised_config_fingerprint(
                self.workload, self._engine_name(), None,
                self.warmup_s, self.dt, self.seed, self.vm_kwargs(),
            )
            fp["wan"] = self.wan or ""
            fp["max_attempts"] = self.max_attempts
            return fp
        return self._experiment().config_fingerprint()

    def _engine_name(self) -> str:
        # The supervisor has no "auto" mode: it starts from javmm.
        return "javmm" if self.engine == "auto" else self.engine

    def _experiment(self) -> MigrationExperiment:
        return MigrationExperiment(
            workload=self.workload,
            engine=self.engine,
            **self.vm_kwargs(),
            warmup_s=self.warmup_s,
            cooldown_s=self.cooldown_s,
            dt=self.dt,
            kernel=self.kernel,
            seed=self.seed,
            migration_timeout_s=self.migration_timeout_s,
            telemetry=self.telemetry,
        )

    def build_driver(self, sink=None, **supervisor_kwargs):
        """The bounded-slice driver for this config (configure phase),
        streaming onto *sink* (a StreamSink) if given; *supervisor_kwargs*
        (e.g. ``rescue=False``) reach a supervised config's supervisor."""
        if self.supervise:
            driver = SupervisedRun(
                workload=self.workload,
                engine_name=self._engine_name(),
                # a fresh seeded WAN link per run; None: a plain LAN Link()
                link=wan_link(self.wan, seed=self.seed) if self.wan else None,
                warmup_s=self.warmup_s,
                dt=self.dt,
                kernel=self.kernel,
                seed=self.seed,
                vm_kwargs=self.vm_kwargs(),
                max_attempts=self.max_attempts,
                telemetry=self.telemetry,
                **supervisor_kwargs,
            )
        elif supervisor_kwargs:
            raise ConfigurationError(
                "supervisor options need a supervised config: "
                + ", ".join(sorted(supervisor_kwargs))
            )
        else:
            driver = ExperimentRun(self._experiment())
        driver.vm.attach_sink(sink)
        return driver

