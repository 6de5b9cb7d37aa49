"""Arch fixture, *proto* layer (clean).

``NodeAgent`` is instantiated per node by ``app.build`` and drives the
engine from its timer; it carries ``__slots__``, keeps all state on the
instance, and never lets set order reach the transport.  Every
REP200-series rule must stay silent here.
"""


class NodeAgent:
    __slots__ = ("sim", "network", "node_id", "inbox")

    def __init__(self, sim, network, node_id):
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.inbox = []

    def on_timer(self):
        """Reads the clock and reschedules itself."""
        if self.sim.now < 10.0:
            self.sim.schedule(1.0, self.on_timer)

    def greet(self, neighbors, message):
        # Deterministic emission: the neighbor list arrives ordered.
        for neighbor in neighbors:
            self.network.send(self.node_id, neighbor, message)

    def deliver(self, message):
        self.inbox.append(message)
