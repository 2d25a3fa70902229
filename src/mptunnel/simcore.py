"""Discrete-event core: simulated clock, event queue, path state and the
plugin registry entry.

Time is integer microseconds everywhere. The only randomness in a run is the
per-path loss draw, taken from one seeded generator per path, so adding or
reconfiguring one path never perturbs another path's loss sequence and runs
are bit-reproducible for a fixed (scenario, seed).
"""

import random
from collections import namedtuple
from collections.abc import Callable
from heapq import heappop, heappush

US_PER_SECOND = 1_000_000

# An event handler is called as fn(arg, now): a bound method plus one
# argument, so scheduling allocates no closure.
EventFn = Callable[[object, int], None]


class PastEventError(Exception):
    """Scheduling an event before the current clock is a programming error."""


class Plugin(namedtuple("Plugin", "factory params doc")):
    """One registry entry: factory(cfg) builds it from the run's ScenarioConfig,
    params are the scenario keys it reads as (key, note) pairs, note "" for
    none, and doc says what it does. A key of its own section that it does
    not read must keep its default (scenario.py)."""

    __slots__ = ()

    def describe(self) -> str:
        params = ", ".join(f"{key} ({note})" if note else key for key, note in self.params)
        return f"{self.doc}; params: {params}" if params else f"{self.doc}; no params"


def serialization_us(size_bytes: int, bandwidth_bps: int) -> int:
    """Link serialization delay for a packet, rounded up to whole microseconds."""
    bits = size_bytes * 8
    return -(-bits * US_PER_SECOND // bandwidth_bps)


class EventQueue:
    """Time-ordered event queue with FIFO tie-break.

    Entries are (time, id, fn, arg) tuples and an event runs as fn(arg, time).
    Pop order is (time, insertion order), which makes simultaneous events
    deterministic. Scheduling before the current clock raises PastEventError.
    """

    def __init__(self):
        self._heap: list[tuple] = []
        self._next_id = 0
        self.now = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, at_us: int, fn: EventFn, arg: object = None) -> None:
        if at_us < self.now:
            raise PastEventError(
                f"cannot schedule event at {at_us} us, clock is at {self.now} us"
            )
        heappush(self._heap, (at_us, self._next_id, fn, arg))
        self._next_id += 1

    def pop(self) -> tuple[int, int, EventFn, object] | None:
        """Remove and return the earliest (time, id, fn, arg) entry, or None."""
        if not self._heap:
            return None
        entry = heappop(self._heap)
        self.now = entry[0]
        return entry


class PathState:
    """Runtime state of one path: serialization FIFO and current latency.

    The path is an infinite FIFO: a packet starts serializing when the link
    becomes free, then propagates with the latency in force at hand-off time.
    Latency changes never affect packets already in flight. Losses are drawn
    per transmitted packet from the path's own generator; a lost packet still
    occupies the link (it is dropped downstream).

    The model is read when the state is built, and its bandwidth again only
    when the packet size changes, so a run reads no config per packet.
    """

    __slots__ = ("model", "current_latency_us", "busy_until_us", "_rng",
                 "_loss_rate", "_size_bytes", "_tx_us")

    def __init__(self, model: "PathModel", seed: int):
        self.model = model
        self.current_latency_us = model.one_way_latency_us
        self.busy_until_us = 0
        self._rng = random.Random(f"{seed}/{model.path_id}")
        self._loss_rate = model.loss_rate
        # Serialization delay of the last packet size sent.
        self._size_bytes = self._tx_us = None

    def transmit(self, size_bytes: int, now: int) -> int | None:
        """Accept a packet for transmission, returning its delivery time.

        Returns None when the loss draw discards the packet.
        """
        if size_bytes != self._size_bytes:
            self._size_bytes = size_bytes
            self._tx_us = serialization_us(size_bytes, self.model.bandwidth_bps)
        start = self.busy_until_us
        if now > start:
            start = now
        done = self.busy_until_us = start + self._tx_us
        if self._loss_rate > 0.0 and self._rng.random() < self._loss_rate:
            return None
        return done + self.current_latency_us
