"""The migration-manager service: multiplexed, controllable sessions.

The paper's migration daemon is a long-lived control plane; this
package gives the reproduction one.  A
:class:`~repro.service.manager.MigrationManager` multiplexes many
simulated migrations as first-class sessions — each driving its own
:class:`~repro.sim.engine.Engine` in cooperative bounded slices — under
admission control, with the full control-verb surface (submit / status
/ pause / resume / stop-and-copy / abort / finalize) available both
in-process and over the ``repro serve`` / ``repro ctl`` JSON-lines
socket.  Slicing only ever tightens engine-advance bounds, so every
session's report, page versions and ledger are bit-identical to the
same config run standalone (see DESIGN.md §9).
"""

from repro.core.config import MigrationConfig
from repro.service.client import RequestFailed, ServiceClient, ServiceUnavailable
from repro.service.manager import MigrationManager
from repro.service.session import (
    MigrationSession,
    SessionError,
    run_digest,
    run_standalone,
)

__all__ = [
    "MigrationConfig",
    "MigrationManager",
    "MigrationSession",
    "RequestFailed",
    "ServiceClient",
    "ServiceUnavailable",
    "SessionError",
    "run_digest",
    "run_standalone",
]
