"""Sender-side packet schedulers: fixed ratio (round robin is its unit
weights), cheapest pipe first, lowest smoothed RTT, and queue-aware
earliest-arrival (otias).

Every scheduler decides from its internal counters and the path views
handed to it, ties always break toward the lower path_id, so the decision
sequence is deterministic for a fixed scenario. The views are the engine's
flows themselves (mptunnel.flow.Flow), read live at decision time, in
path_id order: a view's index is its path_id.

pick(views, now, changed) also names the path_ids whose view may have changed
since the previous pick; changed=None, the default and the engine's value
at its first pick, means any of them may have. Views not named must read as
they did at the previous pick. Only otias uses it, to keep each path's ETA
until the path is named; the other schedulers ignore it.

Every scheduler has moved: the path_ids whose estimate its latest pick
changed in value, () on a scheduler that makes no estimates. One that lists
any keeps etas, its estimate per path_id, and the engine records etas[i]
for each i in moved.
"""

from collections.abc import Callable, Collection, Iterator, Sequence
from itertools import cycle
from math import ceil
from operator import add, attrgetter

from .flow import Flow
from .simcore import Plugin

Changed = Collection[int] | None  # pick's changed, see the module docstring


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
    return ceil(backlog / view.cwnd) * srtt + srtt / 2.0


class FixedRatio:
    """Deterministic weighted round robin (smooth interleaving).

    Per pick every path earns its weight in credit and the highest credit is
    served, paying back the weight total. Over any sum(weights) consecutive
    picks each path is chosen exactly its weight's worth, and every prefix
    stays within one packet of the configured ratio.

    The picks repeat with period sum(weights), because every credit is 0
    again after that many picks. Credits always sum to 0, since a pick pays
    back exactly what all paths earned. A credit falls only when it is
    served, and the served credit is the highest of credits that then sum
    to sum(weights) > 0, so positive: no credit falls to -sum(weights).
    After a period each credit is sum(weights) times (weight - times
    served), a multiple of sum(weights) above -sum(weights), so at least 0,
    and credits at least 0 that sum to 0 are all 0. So each period position
    is computed once by the credit rule and then replayed. Unit weights
    pick 0, 1, ..., n - 1 over and over: round robin in path_id order.
    """

    moved = ()

    def __init__(self, weights: Sequence[int]):
        if not weights or any(w < 0 for w in weights) or not any(weights):
            raise ValueError("weights must be non-negative and not all zero")
        # cycle keeps the picks one period has made so far, then replays them.
        self._picks = cycle(_smooth_period(list(weights)))

    def pick(self, views: Sequence[Flow], now: int, changed: Changed = None) -> int:
        return next(self._picks)


def _smooth_period(weights: list[int]) -> Iterator[int]:
    """One period of FixedRatio's picks, each by the credit rule."""
    credits, total = [0] * len(weights), sum(weights)
    for _ in range(total):
        credits = list(map(add, credits, weights))
        best = credits.index(max(credits))
        credits[best] -= total
        yield best


class LowestWithRoom:
    """The path lowest by key among paths with congestion-window room.

    When every window is full the lowest path overall absorbs the packet
    into its send queue rather than dropping it at ingress. key ends with
    path_id, so ties break toward the lower path_id.
    """

    moved = ()

    def __init__(self, key: Callable[[Flow], tuple]):
        self._key = key

    def pick(self, views: Sequence[Flow], now: int, changed: Changed = None) -> int:
        available = [v for v in views if v.has_window_room]
        return min(available or views, key=self._key).path_id


class Otias:
    """Earliest estimated arrival, deliberately overloading low-RTT flows.

    The chosen flow's send queue may exceed its congestion window; queueing on
    the fast path is the mechanism that lines packets up to arrive in order.

    Each path's ETA is kept until the engine names the path in changed and
    its value differs; changed=None recomputes every path. moved lists the
    paths whose ETA changed value, every path at a full recompute. While no
    ETA changes value the previous pick stands.
    """

    def __init__(self):
        self.etas: list[float] = []  # per path_id
        self.moved: list[int] = []
        self._picked = 0

    def pick(self, views: Sequence[Flow], now: int, changed: Changed = None) -> int:
        etas, moved = self.etas, self.moved
        moved.clear()
        if changed is None:
            etas[:] = map(otias_eta, views)
            moved.extend(range(len(views)))
        else:
            for i in changed:
                # ETAs are positive finite floats: equal means bit-identical.
                eta = otias_eta(views[i])
                if eta != etas[i]:
                    etas[i] = eta
                    moved.append(i)
            if not moved:
                return self._picked
        self._picked = etas.index(min(etas))
        return self._picked


# Every scheduler kind, by the factory that builds it from the run's
# ScenarioConfig. The run log records the ETAs each pick moved.
SCHEDULERS = {
    "cheapest_pipe_first": Plugin(
        lambda cfg: LowestWithRoom(attrgetter("cost", "path_id")),
        (("cost", "per path, default 0"),),
        "prefer the lowest-cost path while its window has room"),
    "fixed_ratio": Plugin(
        lambda cfg: FixedRatio(cfg.scheduler.weights),
        (("weights", "one non-negative integer per path, by path_id, not all zero"),),
        "deterministic weighted round robin"),
    "otias": Plugin(
        lambda cfg: Otias(), (),
        "earliest estimated arrival using queue backlog and smoothed RTT"),
    "round_robin": Plugin(
        lambda cfg: FixedRatio([1] * len(cfg.paths)), (),
        "cycle through paths in path_id order"),
    "srtt": Plugin(
        lambda cfg: LowestWithRoom(attrgetter("srtt_us", "path_id")), (),
        "lowest smoothed RTT among paths with window room"),
}
