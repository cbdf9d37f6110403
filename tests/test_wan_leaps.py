"""Event-kernel leaps while the Gilbert–Elliott chain draws.

:class:`~repro.net.wan.WanDriver` grants a horizon up to the first tick
whose draw flips the burst chain, found by looking ahead on a copy of
the ``wan-ge`` bit-generator state; :meth:`WanDriver.step_many` then
consumes exactly one draw per quiet tick.  These tests pin the contract:
the look-ahead never consumes a draw, the horizon lands on the flip
tick, a leap leaves the RNG where per-tick stepping would, a forged leap
across a flip fails loudly, and supervised WAN runs actually leap.
"""

from __future__ import annotations

import pytest

from repro.core.supervisor import supervised_migrate
from repro.errors import SimulationError
from repro.net import WanLink, wan_link
from repro.net.wan import LOOKAHEAD_DRAWS
from repro.sim.engine import Engine
from repro.units import MiB

DT = 0.005


def _drawing_link(seed: int = 7) -> tuple[WanLink, Engine]:
    """A bursty link with a consumer, so its chain draws every tick;
    flips are frequent enough (p = 0.05 per tick) to land in a test."""
    wan = WanLink(
        up_bytes_per_s=1000,
        bad_loss_rate=0.3,
        mean_good_s=0.1,
        mean_bad_s=0.1,
        seed=seed,
    )
    engine = Engine(DT, kernel="event")
    wan.install(engine)
    wan.register_consumer("m")
    return wan, engine


def _flip_tick(seed: int) -> int:
    """1-based tick of the first chain flip under plain per-tick steps."""
    wan, engine = _drawing_link(seed)
    for tick in range(1, 10_000):
        engine.step()
        if wan.loss_rate != 0.0:
            return tick
    raise AssertionError("the chain never flipped")


def test_next_event_leaves_the_rng_untouched():
    wan, engine = _drawing_link()
    driver = wan._driver
    before = wan.rng.snapshot()
    horizons = {driver.next_event(engine.now) for _ in range(3)}
    assert len(horizons) == 1
    assert wan.rng.snapshot() == before


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_leap_lands_on_the_flip_tick_with_the_per_tick_draws(seed):
    """An unbounded advance leaps exactly to the flip tick and leaves
    the chain, the loss rate and the RNG state where per-tick stepping
    does."""
    flip = _flip_tick(seed)
    fixed, fixed_engine = _drawing_link(seed)
    fixed_engine.kernel = "fixed"
    fixed_engine.run_until(flip * DT)
    leapt, engine = _drawing_link(seed)
    engine.advance(1e9)
    assert engine.leaps == (1 if flip > 1 else 0)
    assert engine.clock.ticks == fixed_engine.clock.ticks == flip
    assert leapt.loss_rate == fixed.loss_rate == 0.3
    assert leapt.rng.snapshot() == fixed.rng.snapshot()


def test_requery_between_advances_reuses_the_look_ahead():
    wan, engine = _drawing_link(seed=11)
    driver = wan._driver
    horizon = driver.next_event(engine.now)
    memo = driver._flip_memo
    engine.step()  # one ordinary tick short of the flip
    assert driver.next_event(engine.now) == pytest.approx(horizon)
    assert driver._flip_memo is memo


def test_look_ahead_window_caps_the_horizon():
    """Without a flip in sight the horizon stops at the window's end."""
    wan = WanLink(
        up_bytes_per_s=1000, bad_loss_rate=0.3, mean_good_s=1e9, mean_bad_s=1.0,
    )
    engine = Engine(DT, kernel="event")
    wan.install(engine)
    wan.register_consumer("m")
    horizon = wan._driver.next_event(engine.now)
    assert round(horizon / DT) == LOOKAHEAD_DRAWS + 1


def test_forged_leap_across_a_flip_raises():
    flip = _flip_tick(7)
    wan, engine = _drawing_link(7)
    with pytest.raises(SimulationError, match="Gilbert"):
        wan._driver.step_many(engine.clock.ticks, flip + 1, DT)


def test_supervised_metro_run_leaps_through_the_drawing_chain(monkeypatch):
    """The optimisation cannot silently turn itself off: a supervised
    derby migration over the metro profile spends at least 75 % of its
    ticks inside event-kernel leaps."""
    seen = {"ticks": 0, "leapt": 0}
    advance = Engine._advance

    def counted(self, bound):
        ticks = advance(self, bound)
        seen["ticks"] += ticks
        seen["leapt"] += ticks - 1
        return ticks

    monkeypatch.setattr(Engine, "_advance", counted)
    result, _ = supervised_migrate(
        workload="derby",
        link=wan_link("metro"),
        kernel="event",
        vm_kwargs={"mem_bytes": MiB(512), "max_young_bytes": MiB(128)},
    )
    assert result.ok
    assert seen["ticks"] > 1000
    assert seen["leapt"] >= 0.75 * seen["ticks"], seen
