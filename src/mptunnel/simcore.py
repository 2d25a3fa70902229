"""Discrete-event core: simulated clock, event queue, path models and traffic
sources.

Time is integer microseconds everywhere. The only randomness in a run is the
per-path loss draw, taken from one seeded generator per path, so adding or
reconfiguring one path never perturbs another path's loss sequence and runs
are bit-reproducible for a fixed (scenario, seed).
"""

import copyreg
import random
from collections import namedtuple
from collections.abc import Callable
from heapq import heappop, heappush
from types import SimpleNamespace

US_PER_SECOND = 1_000_000

# An event handler is called as fn(arg, now): a bound method plus one
# argument, so scheduling allocates no closure.
EventFn = Callable[[object, int], None]


class PastEventError(Exception):
    """Scheduling an event before the current clock is a programming error."""


class Plugin(namedtuple("Plugin", "factory params doc")):
    """One registry entry: factory(cfg) builds it from the run's ScenarioConfig,
    params are the scenario keys it reads ("" for none), doc what it does."""

    __slots__ = ()

    def describe(self) -> str:
        params = f"params: {self.params}" if self.params else "no params"
        return f"{self.doc}; {params}"


def serialization_us(size_bytes: int, bandwidth_bps: int) -> int:
    """Link serialization delay for a packet, rounded up to whole microseconds."""
    bits = size_bytes * 8
    return -(-bits * US_PER_SECOND // bandwidth_bps)


class Record(SimpleNamespace):
    """A mutable config record whose fields are its attributes: vars() lists
    them, == and repr go field by field and a copy is rebuilt from them. A
    field defaulting to a new list or record takes None for that default."""

    def __reduce__(self):
        # A bare instance, then its fields: __init__ is not called, and
        # copyreg.__newobj__ is found by name at every pickle protocol.
        return copyreg.__newobj__, (type(self),), vars(self)


class LatencyStep(Record):
    """Scheduled change of a path's one-way latency."""

    def __init__(self, at_us: int, latency_us: int):
        super().__init__(at_us=at_us, latency_us=latency_us)


class PathModel(Record):
    """Static description of one simulated link."""

    def __init__(self, path_id: int, one_way_latency_us: int, bandwidth_bps: int,
                 loss_rate: float = 0.0, cost: float = 0.0,
                 latency_steps: list[LatencyStep] | None = None):
        super().__init__(
            path_id=path_id, one_way_latency_us=one_way_latency_us,
            bandwidth_bps=bandwidth_bps, loss_rate=loss_rate, cost=cost,
            latency_steps=[] if latency_steps is None else latency_steps)


class TrafficSource(Record):
    """Constant bit rate or greedy (always backlogged) packet source."""

    def __init__(self, kind: str, packet_size_bytes: int, rate_bps: int = 0,
                 start_us: int = 0, stop_us: int | None = None):
        super().__init__(kind=kind, packet_size_bytes=packet_size_bytes,
                         rate_bps=rate_bps, start_us=start_us, stop_us=stop_us)


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

    def __init__(self, model: PathModel, seed: int):
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
