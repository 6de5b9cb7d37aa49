"""Combined pull (Section IV: "the two variants essentially complement each
other and perform best when combined").

Each gossip round is publisher-based with probability ``P_source`` and
subscriber-based otherwise.  When the chosen style has nothing to do this
round (no pending losses for any source with a known route, or no pending
losses on any locally subscribed pattern) the other style is tried before
declaring the round skipped -- the selection parameter biases effort, it
does not waste rounds.  With an empty ``Lost`` buffer neither style has
anything to do, so the round is skipped right after the selection draw.
"""

from __future__ import annotations

from repro.recovery.pull_base import PullRecoveryBase

__all__ = ["CombinedPullRecovery"]


class CombinedPullRecovery(PullRecoveryBase):
    """Probabilistic mix of publisher- and subscriber-based pull."""

    __slots__ = ()

    name = "combined-pull"
    requires_route_recording = True

    def gossip_round(self) -> None:
        publisher_first = self.rng.random() < self.config.p_source
        if not self.detector.has_losses(self._sim._now):
            # Both styles would return before any draw: skip their scans.
            self.stats.rounds_skipped += 1
            return
        if publisher_first:
            emitted = self.publisher_round() or self.subscriber_round()
        else:
            emitted = self.subscriber_round() or self.publisher_round()
        if not emitted:
            self.stats.rounds_skipped += 1
