"""Protocol fixture, *proto* layer (bad): chained ordered emission.

``flood`` iterates a set and calls a helper that sends — the loop body
never emits itself, but the emission order still inherits the set's
hash order through the call chain: REP003, at the loop.
``flood_sorted`` is the quiet form.
"""


class Flooder:
    __slots__ = ("net", "node_id", "peers")

    def __init__(self, net, node_id):
        self.net = net
        self.node_id = node_id
        self.peers = set()

    def _notify(self, peer, payload):
        self.net.send(self.node_id, peer, payload)

    def flood(self, payload):
        for peer in self.peers:  # REP003: set order reaches the wire
            self._notify(peer, payload)

    def flood_sorted(self, payload):
        for peer in sorted(self.peers):
            self._notify(peer, payload)
