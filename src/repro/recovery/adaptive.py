"""Adaptive push -- the extension Section IV-E points at.

*"To remove the potential source of inefficiency of the push algorithm, an
adaptive approach could be exploited where the gossip interval T is changed
dynamically according to the current state of the system, as suggested in
[14]"* (PlanetP).

:class:`AdaptivePushRecovery` implements a simple multiplicative-increase /
multiplicative-decrease controller on the gossip interval, driven by
observed demand: if nobody requested anything from our digests since the
last round, gossip is evidently not needed and the interval grows by
:data:`ADAPTIVE_FACTOR` (up to :data:`ADAPTIVE_MAX_INTERVAL`); as soon as
a request arrives, it shrinks back by the same factor (down to
:data:`ADAPTIVE_MIN_INTERVAL`).

The ablation benchmark shows it approaches pull's low overhead on reliable
networks while retaining push's delivery on lossy ones.
"""

from __future__ import annotations

from typing import Tuple

from repro.pubsub.event import EventId
from repro.recovery.push import PushRecovery

__all__ = [
    "AdaptivePushRecovery",
    "ADAPTIVE_MIN_INTERVAL",
    "ADAPTIVE_MAX_INTERVAL",
    "ADAPTIVE_FACTOR",
]

#: Bounds of the adapted gossip interval, seconds.
ADAPTIVE_MIN_INTERVAL = 0.01
ADAPTIVE_MAX_INTERVAL = 0.24
#: Multiplicative step of one adaptation.
ADAPTIVE_FACTOR = 1.5


class AdaptivePushRecovery(PushRecovery):
    """Push with a demand-driven gossip interval."""

    name = "adaptive-push"

    __slots__ = ("_requests_since_round", "interval_changes")

    def __init__(self, dispatcher, rng, config) -> None:
        super().__init__(dispatcher, rng, config)
        self._requests_since_round = 0
        self.interval_changes = 0

    def gossip_round(self) -> None:
        self._adapt_interval()
        super().gossip_round()

    def _adapt_interval(self) -> None:
        current = self.timer.period
        if self._requests_since_round == 0:
            new_period = min(current * ADAPTIVE_FACTOR, ADAPTIVE_MAX_INTERVAL)
        else:
            new_period = max(current / ADAPTIVE_FACTOR, ADAPTIVE_MIN_INTERVAL)
        self._requests_since_round = 0
        if new_period != current:
            self.timer.set_period(new_period)
            self.interval_changes += 1

    def handle_oob_request(self, payload: Tuple[EventId, ...], from_node: int) -> None:
        self._requests_since_round += 1
        super().handle_oob_request(payload, from_node)
