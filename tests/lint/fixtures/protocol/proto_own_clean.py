"""Protocol fixture, *proto* layer (clean): the quiet forms.

``Agent`` is instantiated per node by ``app.build``.  It reads time only
through the engine, ordering never derives from identity, and set
iteration is sorted before it feeds a sending callee.  REP002, REP003
and REP004 must all stay silent here.
"""


class Agent:
    __slots__ = ("sim", "net", "node_id", "inbox", "peers")

    def __init__(self, sim, net, node_id):
        self.sim = sim
        self.net = net
        self.node_id = node_id
        self.inbox = []
        self.peers = set()

    def on_timer(self):
        """Reads the clock and reschedules itself."""
        if self.sim.now < 10.0:
            self.sim.schedule(1.0, self.on_timer)

    def deliver(self, message):
        self.inbox.append(message)

    def snapshot_to(self, peer):
        # Copies cross nodes freely; only live aliases are findings.
        peer.deliver(list(self.inbox))

    def broadcast(self, payload):
        # Sorted before the sending callee: deterministic emission.
        for peer in sorted(self.peers):
            self._emit(peer, payload)

    def _emit(self, peer, payload):
        self.net.send(self.node_id, peer, payload)

    def rank_peers(self):
        # Ordering by a stable protocol identifier, not identity.
        return sorted(self.peers)
