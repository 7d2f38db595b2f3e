"""The one event sink: each actor keeps its last EVENTS_KEPT decisions, each
``{"actor", "event", **fields}`` with no timestamp, so simulated reports stay a
pure function of (script, seed). ``deque.append`` is atomic: no lock is needed.
"""

from collections import deque

EVENTS_KEPT = 4096


class Events(deque):
    __slots__ = ("actor",)  # no instance __dict__: one ring per actor

    def __init__(self, actor: str) -> None:
        super().__init__(maxlen=EVENTS_KEPT)
        self.actor = actor

    def emit(self, event: str, **fields) -> None:
        self.append({"actor": self.actor, "event": event, **fields})
