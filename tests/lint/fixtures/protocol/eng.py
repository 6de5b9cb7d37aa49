"""Protocol fixture, *engine* layer: the clock and calendar."""


class Simulator:
    """A stub engine: monotone clock plus a schedule call."""

    __slots__ = ("_now", "calendar")

    def __init__(self):
        self._now = 0.0
        self.calendar = []

    @property
    def now(self):
        return self._now

    def schedule(self, delay, callback):
        entry = (self._now + delay, callback)
        self.calendar.append(entry)
        return entry
