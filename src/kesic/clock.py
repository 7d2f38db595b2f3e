"""Injectable time sources.

Every actor takes a Clock instead of touching ``time`` directly so that the
simulated harness can drive a shared virtual clock that only advances on
explicit script steps, and so tests can create controlled skew between
actors. ``now_us`` exists for authenticator timestamps: within a frozen
virtual second it hands out strictly increasing microsecond readings, which
keeps the (id, ts) replay caches honest without moving protocol time.
"""

from __future__ import annotations

import time
import weakref


class Clock:
    """Interface: wall time in POSIX seconds plus a monotonic timer."""

    def now(self) -> int:
        raise NotImplementedError

    def now_us(self) -> int:
        raise NotImplementedError

    def timer(self) -> float:
        """Monotonic reading in seconds; comparable only against itself."""
        raise NotImplementedError


class SystemClock(Clock):
    def __init__(self) -> None:
        self._last_us = 0

    def now(self) -> int:
        return int(time.time())

    def now_us(self) -> int:
        # Monotone even if the wall clock steps backwards.
        us = time.time_ns() // 1000
        if us <= self._last_us:
            us = self._last_us + 1
        self._last_us = us
        return us

    def timer(self) -> float:
        return time.monotonic()


class VirtualClock(Clock):
    """Script-driven clock; ``advance`` is the only way time moves."""

    def __init__(self, start: int = 1_700_000_000) -> None:
        self._now = int(start)
        self._last_us = 0
        self._listeners: list = []

    def now(self) -> int:
        return self._now

    def now_us(self) -> int:
        floor = self._now * 1_000_000
        self._last_us = floor if self._last_us < floor else self._last_us + 1
        return self._last_us

    def timer(self) -> float:
        return float(self._now)

    def advance(self, seconds: int) -> None:
        if seconds < 0:
            raise ValueError("virtual clock cannot run backwards")
        self._now += int(seconds)
        for ref in list(self._listeners):
            fn = ref()
            if fn is not None:
                fn(self._now)

    def on_advance(self, method) -> None:
        """Register a bound method ``method(now)`` to run after every advance
        (e.g. timeout sweeps).

        The clock holds it weakly: its owner usually holds the clock too, and
        the pair must not keep each other alive.
        """
        self._listeners.append(weakref.WeakMethod(method))

