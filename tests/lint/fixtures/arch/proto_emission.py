"""Arch fixture, *proto* layer (REP003): a set-typed attribute's order
escaping into sends."""


class Emitter:
    __slots__ = ("network", "node_id", "targets")

    def __init__(self, network, node_id):
        self.network = network
        self.node_id = node_id
        self.targets = set()

    def broadcast(self, message):
        # BAD: hash-dependent iteration order decides the send order.
        for target in self.targets:
            self.network.send(self.node_id, target, message)

    def snapshot(self, collector):
        # BAD: the comprehension hands set order straight to a send call.
        self.network.send(
            self.node_id, collector, [t for t in self.targets]
        )

    def broadcast_sorted(self, message):
        # OK: sorted() pins the order before it reaches the transport.
        for target in sorted(self.targets):
            self.network.send(self.node_id, target, message)
