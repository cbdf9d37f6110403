"""Deterministic random streams.

Experiments must be reproducible run-to-run, so every source of
randomness draws from a named child stream of one root seed.  Two
simulations built with the same seed and the same stream names observe
identical draws regardless of the order in which *other* streams are
consumed.

Stream spawn keys are derived with :func:`zlib.crc32`, not the builtin
``hash``: string hashing is randomized per process (PYTHONHASHSEED), so
a builtin-hash key would make draws differ between a run and its
crash-restarted resume — exactly the cross-process determinism the
checkpoint layer (:mod:`repro.checkpoint`) must guarantee.

:meth:`SimRng.snapshot` / :meth:`SimRng.restore` capture every live
stream's bit-generator state explicitly, so a restored ``SimRng``
continues the exact draw sequence of the original — including streams
first touched only after the restore point.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import CheckpointSchemaError

#: version of the :meth:`SimRng.snapshot` payload layout
RNG_SNAPSHOT_VERSION = 1


def _spawn_key(name: str) -> int:
    """Stable 32-bit spawn key for a stream name (process-independent)."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


class SimRng:
    """A root seed that hands out independent named substreams."""

    def __init__(self, seed: int = 20150421) -> None:
        # The default seed is the paper's presentation date at
        # EuroSys'15 (21 April 2015); any fixed value works.
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def _spawn(self, name: str) -> np.random.Generator:
        """A fresh generator at the start of substream *name*."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(_spawn_key(name),))
        )

    def stream(self, name: str) -> np.random.Generator:
        """Return the (memoized) generator for substream *name*."""
        if name not in self._streams:
            self._streams[name] = self._spawn(name)
        return self._streams[name]

    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform draw from substream *name*."""
        return float(self.stream(name).uniform(low, high))

    def peek_uniform(self, name: str, size: int) -> np.ndarray:
        """The next *size* ``uniform(0, 1)`` draws of substream *name*,
        taken on a copy of its state: the stream neither advances nor,
        if it is not live yet, comes into being (so :meth:`snapshot`
        is unchanged)."""
        live = self._streams.get(name)
        if live is None:
            return self._spawn(name).uniform(0.0, 1.0, size=size)
        bits = type(live.bit_generator)()
        bits.state = live.bit_generator.state
        return np.random.Generator(bits).uniform(0.0, 1.0, size=size)

    # -- checkpoint protocol ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Every live stream's exact bit-generator state, JSON-shaped.

        The payload is plain dicts/ints (numpy exposes generator state
        that way), so it can ride in a checkpoint manifest as well as a
        pickle.
        """
        return {
            "snapshot_version": RNG_SNAPSHOT_VERSION,
            "seed": self.seed,
            "streams": {
                name: gen.bit_generator.state for name, gen in self._streams.items()
            },
        }

    def restore(self, payload: dict) -> None:
        """Apply a :meth:`snapshot` payload, resuming every stream
        mid-sequence; streams not yet live at snapshot time are simply
        recreated on first use (their spawn keys are deterministic)."""
        version = payload.get("snapshot_version", 0)
        if version != RNG_SNAPSHOT_VERSION:
            raise CheckpointSchemaError(
                f"SimRng snapshot v{version} cannot be applied to "
                f"v{RNG_SNAPSHOT_VERSION}"
            )
        self.seed = int(payload["seed"])
        self._streams = {}
        for name, state in payload["streams"].items():
            gen = self._spawn(name)
            gen.bit_generator.state = state
            self._streams[name] = gen
