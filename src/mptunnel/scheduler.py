"""Sender-side packet schedulers: round robin, fixed ratio, cheapest pipe
first, lowest smoothed RTT, and queue-aware earliest-arrival (otias).

Every scheduler is a pure function of its internal counters and the values
of the path views handed to it, ties always break toward the lower path_id,
so the decision sequence is deterministic for a fixed scenario. The views are
the engine's flows themselves (mptunnel.flow.Flow), read live at decision
time, in path_id order: a view's index is its path_id. otias caches its
per-path function of those values, keyed by the values themselves, so the
cache never changes a decision.
"""

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional, Sequence

from .flow import Flow
from .simcore import Plugin


@dataclass
class SchedulerConfig:
    kind: str
    weights: Optional[list[int]] = None


def otias_eta(view: Flow) -> float:
    """Estimated arrival offset of a packet appended to this flow now.

    The send queue drains one congestion window per round trip, so the packet
    waits ceil(max(0, queue + in_flight + 1 - cwnd) / cwnd) full round trips
    before transmission, then half a round trip to reach the receiver.
    """
    srtt = view.srtt_us
    backlog = len(view.send_queue) + view.in_flight + 1 - view.cwnd
    if backlog <= 0:
        return srtt / 2.0
    return math.ceil(backlog / view.cwnd) * srtt + srtt / 2.0


class RoundRobin:
    """Cycle through paths in path_id order."""

    def __init__(self):
        self._last = -1

    def pick(self, views: Sequence[Flow], now: int) -> int:
        self._last = (self._last + 1) % len(views)
        return self._last


class FixedRatio:
    """Deterministic weighted round robin (smooth interleaving).

    Per pick every path earns its weight in credit and the highest credit is
    served, paying back the weight total. Over any sum(weights) consecutive
    picks each path is chosen exactly its weight's worth, and every prefix
    stays within one packet of the configured ratio.
    """

    def __init__(self, weights: Sequence[int]):
        if not weights or any(w < 0 for w in weights) or not any(weights):
            raise ValueError("weights must be non-negative and not all zero")
        self._weights = list(weights)
        self._credits = [0] * len(weights)
        self._total = sum(weights)

    def pick(self, views: Sequence[Flow], now: int) -> int:
        for i, w in enumerate(self._weights):
            self._credits[i] += w
        best = max(range(len(self._credits)), key=lambda i: (self._credits[i], -i))
        self._credits[best] -= self._total
        return best


class LowestWithRoom:
    """The path lowest by key among paths with congestion-window room.

    When every window is full the lowest path overall absorbs the packet
    into its send queue rather than dropping it at ingress. key ends with
    path_id, so ties break toward the lower path_id.
    """

    def __init__(self, key: Callable[[Flow], tuple]):
        self._key = key

    def pick(self, views: Sequence[Flow], now: int) -> int:
        available = [v for v in views if v.has_window_room]
        return min(available or views, key=self._key).path_id


class Otias:
    """Earliest estimated arrival, deliberately overloading low-RTT flows.

    The chosen flow's send queue may exceed its congestion window; queueing on
    the fast path is the mechanism that lines packets up to arrive in order.

    Each path's ETA is kept, as the same float object, until one of the
    values otias_eta reads changes: srtt_us, cwnd or the backlog
    len(send_queue) + in_flight. The key holds the values only, never the
    view's identity, so views mutated in place or replaced are both seen.
    """

    def __init__(self):
        self.last_etas: tuple[float, ...] = ()
        self._keys: list = []  # per path_id: the inputs its ETA was computed from
        self._etas: list[float] = []

    def pick(self, views: Sequence[Flow], now: int) -> int:
        keys, etas = self._keys, self._etas
        if len(keys) != len(views):
            keys[:] = [None] * len(views)
            etas[:] = keys
        for i, v in enumerate(views):
            key = (v.srtt_us, v.cwnd, len(v.send_queue) + v.in_flight)
            if key != keys[i]:
                keys[i] = key
                etas[i] = otias_eta(v)
        etas = self.last_etas = tuple(etas)
        return etas.index(min(etas))


# Every scheduler kind, built from its SchedulerConfig. A scheduler that sets
# last_etas has those per-path estimates recorded with each decision.
SCHEDULERS = {
    "cheapest_pipe_first": Plugin(
        lambda config: LowestWithRoom(attrgetter("cost", "path_id")),
        "cost (per path, default 0)",
        "prefer the lowest-cost path while its window has room"),
    "fixed_ratio": Plugin(
        lambda config: FixedRatio(config.weights),
        "weights (one non-negative integer per path, by path_id, not all zero)",
        "deterministic weighted round robin"),
    "otias": Plugin(
        lambda config: Otias(), "",
        "earliest estimated arrival using queue backlog and smoothed RTT"),
    "round_robin": Plugin(
        lambda config: RoundRobin(), "",
        "cycle through paths in path_id order"),
    "srtt": Plugin(
        lambda config: LowestWithRoom(attrgetter("srtt_us", "path_id")), "",
        "lowest smoothed RTT among paths with window room"),
}
