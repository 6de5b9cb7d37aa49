"""Protocol fixture, *transport* layer: where messages leave a node."""


class Network:
    """A stub transport: records what the protocol asks it to send."""

    __slots__ = ("sent",)

    def __init__(self):
        self.sent = []

    def send(self, source, target, message):
        self.sent.append((source, target, message))

    def transmit(self, link, message):
        self.sent.append((link, message))
