"""Protocol fixture, *proto* layer (bad): identity-derived ordering.

``Chooser`` schedules on the engine calendar, so any ordering decision
it makes feeds the (time, seq) order.  Sorting peers by ``id()`` and
breaking ties with ``hash()`` both produce an order that changes between
runs (addresses, PYTHONHASHSEED) — each is REP004.  ``pick_stable``
shows the quiet form: ordering by the protocol identifier.
"""


class Chooser:
    __slots__ = ("sim", "node_id", "targets")

    def __init__(self, sim, node_id):
        self.sim = sim
        self.node_id = node_id
        self.targets = []

    def on_timer(self):
        order = sorted(self.targets, key=id)  # REP004: address order
        for target in order:
            self.sim.schedule(1.0, target)

    def tiebreak(self, left, right):
        self.sim.schedule(0.5, left)
        if hash(left) < hash(right):  # REP004: hash-seed order
            return left
        return right

    def pick_stable(self):
        order = sorted(self.targets, key=lambda t: t.node_id)
        for target in order:
            self.sim.schedule(1.0, target)
        return order
