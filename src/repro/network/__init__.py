"""Network substrate: links, nodes, and the out-of-band transport.

The paper assumes each overlay link between two dispatchers behaves as a
10 Mbit/s Ethernet link, and that recovery traffic (requests for missing
events and their retransmissions) travels on a separate, "out of band",
not-necessarily-reliable unicast channel (e.g. UDP).

* :class:`~repro.network.link.Link` -- a duplex link with per-direction FIFO
  serialization, propagation delay, and i.i.d. Bernoulli message loss with
  probability ``error_rate`` (the paper's ε).
* :class:`~repro.network.network.Network` -- the set of nodes plus the live
  links between them, the out-of-band channel, and the run's traffic
  tallies (per message kind, and gossip and out-of-band sends per node).
* :class:`~repro.network.message.Message` -- the unit of transmission, with
  a small taxonomy of kinds used for overhead accounting.
"""

from repro.network.message import (
    Message,
    MessageKind,
    DEFAULT_MESSAGE_SIZE_BITS,
)
from repro.network.link import Link
from repro.network.node import Node
from repro.network.network import Network, NetworkConfig

__all__ = [
    "Message",
    "MessageKind",
    "DEFAULT_MESSAGE_SIZE_BITS",
    "Link",
    "Node",
    "Network",
    "NetworkConfig",
]
