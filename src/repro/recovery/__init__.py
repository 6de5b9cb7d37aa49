"""Epidemic recovery algorithms -- the paper's contribution.

Every algorithm runs on top of the best-effort dispatching substrate
(:mod:`repro.pubsub`) and recovers lost events through periodic gossip
rounds (period ``T``), an event cache of β elements, and an out-of-band
request/retransmission channel:

==================  =========================================================
``none``            baseline: no recovery.
``push``            proactive gossip with positive digests steered along the
                    tree toward subscribers of a randomly drawn pattern.
``subscriber-pull`` reactive gossip with negative digests built from
                    sequence-number loss detection, steered toward
                    subscribers of the lost pattern.
``publisher-pull``  reactive gossip steered hop-by-hop back toward the
                    event source along recorded routes.
``combined-pull``   each round is publisher-based with probability
                    ``P_source``, subscriber-based otherwise (the paper's
                    best pull configuration).
``random-pull``     control: negative digests, routing entirely at random.
``random-push``     control the paper omits as "extremely poor".
``adaptive-push``   extension (Section IV-E, citing PlanetP [14]): push with
                    a gossip interval that adapts to observed demand.
``ack``             idealized Gryphon-like acknowledgment comparator
                    (Section V): publisher-driven retransmissions with
                    global recipient knowledge -- the centralized upper
                    bound the epidemic algorithms are argued against.
``gossip-dissemination``
                    hpcast-style comparator (Section V): gossip as the
                    *only* routing mechanism; tree routing disabled, full
                    events travel in gossip batches.
==================  =========================================================

Use :func:`create_recovery` (or the ``ALGORITHMS`` registry) to instantiate
by name.
"""

from repro.recovery.base import GossipStats, RecoveryAlgorithm, RecoveryConfig
from repro.recovery.digest import (
    PublisherPullGossip,
    PushGossip,
    RandomPullGossip,
    RandomPushGossip,
    SubscriberPullGossip,
)
from repro.recovery.loss_detector import LossDetector, LostKey
from repro.recovery.routes import RoutesBuffer
from repro.recovery.none import NoRecovery
from repro.recovery.push import PushRecovery
from repro.recovery.pull_base import PullRecoveryBase
from repro.recovery.pull_subscriber import SubscriberPullRecovery
from repro.recovery.pull_publisher import PublisherPullRecovery
from repro.recovery.pull_combined import CombinedPullRecovery
from repro.recovery.pull_random import RandomPullRecovery
from repro.recovery.push_random import RandomPushRecovery
from repro.recovery.adaptive import AdaptivePushRecovery
from repro.recovery.ack import AckRecovery
from repro.recovery.dissemination import GossipDisseminationRecovery

ALGORITHMS = {
    NoRecovery.name: NoRecovery,
    PushRecovery.name: PushRecovery,
    SubscriberPullRecovery.name: SubscriberPullRecovery,
    PublisherPullRecovery.name: PublisherPullRecovery,
    CombinedPullRecovery.name: CombinedPullRecovery,
    RandomPullRecovery.name: RandomPullRecovery,
    RandomPushRecovery.name: RandomPushRecovery,
    AdaptivePushRecovery.name: AdaptivePushRecovery,
    AckRecovery.name: AckRecovery,
    GossipDisseminationRecovery.name: GossipDisseminationRecovery,
}

#: The algorithms plotted in the paper's Figure 3 charts, in legend order.
PAPER_ALGORITHMS = (
    "none",
    "random-pull",
    "push",
    "subscriber-pull",
    "combined-pull",
    "publisher-pull",
)


def create_recovery(name, dispatcher, rng, config):
    """Instantiate the recovery algorithm registered under ``name``.

    Parameters mirror :class:`~repro.recovery.base.RecoveryAlgorithm`.
    Raises ``KeyError`` with the known names when ``name`` is unknown.
    """
    try:
        cls = ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown recovery algorithm {name!r}; known: {sorted(ALGORITHMS)}"
        ) from None
    return cls(dispatcher, rng, config)


__all__ = [
    "ALGORITHMS",
    "PAPER_ALGORITHMS",
    "create_recovery",
    "RecoveryAlgorithm",
    "RecoveryConfig",
    "GossipStats",
    "LossDetector",
    "LostKey",
    "RoutesBuffer",
    "PushGossip",
    "SubscriberPullGossip",
    "PublisherPullGossip",
    "RandomPullGossip",
    "RandomPushGossip",
    "NoRecovery",
    "PushRecovery",
    "PullRecoveryBase",
    "SubscriberPullRecovery",
    "PublisherPullRecovery",
    "CombinedPullRecovery",
    "RandomPullRecovery",
    "RandomPushRecovery",
    "AdaptivePushRecovery",
    "AckRecovery",
    "GossipDisseminationRecovery",
]
