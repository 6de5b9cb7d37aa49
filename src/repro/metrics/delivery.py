"""Delivery-rate measurement.

For every published event the tracker records the ground-truth *expected*
recipients (the dispatchers that would receive it in a fully reliable
system) and then marks actual local deliveries, distinguishing events that
arrived through normal routing from those recovered by gossip.

The paper's delivery-rate charts are reproduced by
:meth:`DeliveryTracker.time_series` (events binned by publish time, each
bin's rate being the fraction of its expected deliveries eventually
fulfilled) and :meth:`DeliveryTracker.stats` (aggregate over a measurement
window, so warm-up and the un-recoverable tail can be excluded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.pubsub.event import Event, EventId
from repro.metrics.timeseries import TimeSeries

__all__ = ["DeliveryTracker", "DeliveryStats"]


class _EventRecord:
    """Classic record: recipient hash sets (the paper-scale layout).

    C-speed membership and insertion on the per-delivery hot path; kept
    as the default because the bitmap layout below trades exactly that
    speed for memory.
    """

    __slots__ = (
        "publish_time",
        "expected",
        "delivered",
        "recovered",
        "latency_sum",
        "recovered_latency_sum",
    )

    def __init__(self, publish_time: float, expected: Iterable[int]) -> None:
        self.publish_time = publish_time
        self.expected = frozenset(expected)
        self.delivered: Set[int] = set()
        self.recovered = 0
        self.latency_sum = 0.0
        self.recovered_latency_sum = 0.0

    @property
    def expected_count(self) -> int:
        return len(self.expected)

    @property
    def delivered_count(self) -> int:
        return len(self.delivered)


class _CompactEventRecord:
    """Expected/delivered recipients of one event, as node-id bitmaps.

    Recipient populations scale with N (a pattern's subscribers are a
    fixed *fraction* of the network), so at 10^5 nodes the hash sets of
    :class:`_EventRecord` dominate the tracker's footprint -- ~N/8 bytes
    per event in bitmap form versus ~60 bytes per recipient as a set.
    Only membership, insertion and counting are ever needed.  Selected
    by ``DeliveryTracker(compact=True)`` (the large-scale runs); the
    per-delivery bit arithmetic is Python-level, so paper-scale runs
    keep the classic record.
    """

    __slots__ = (
        "publish_time",
        "expected_bits",
        "expected_count",
        "delivered_bits",
        "delivered_count",
        "recovered",
        "latency_sum",
        "recovered_latency_sum",
    )

    def __init__(self, publish_time: float, expected: Iterable[int]) -> None:
        self.publish_time = publish_time
        bits = bytearray()
        count = 0
        for node_id in expected:
            byte = node_id >> 3
            if byte >= len(bits):
                bits.extend(bytes(byte + 1 - len(bits)))
            mask = 1 << (node_id & 7)
            if not bits[byte] & mask:
                bits[byte] |= mask
                count += 1
        self.expected_bits = bytes(bits)
        self.expected_count = count
        self.delivered_bits = bytearray(len(bits))
        self.delivered_count = 0
        self.recovered = 0
        self.latency_sum = 0.0
        self.recovered_latency_sum = 0.0


@dataclass(frozen=True)
class DeliveryStats:
    """Aggregate delivery statistics over a measurement window."""

    #: Events published in the window.
    events: int
    #: (event, subscriber) pairs a fully reliable system would fulfil.
    expected: int
    #: Pairs actually fulfilled (any means).
    delivered: int
    #: Pairs fulfilled by normal best-effort routing only.
    delivered_normally: int
    #: Pairs fulfilled by the recovery machinery.
    recovered: int
    #: Mean delivery latency (publish -> local delivery), seconds.
    mean_latency: float
    #: Mean latency of *recovered* deliveries only -- the paper's
    #: recovery-latency discussion (Section IV-C: push has a bigger
    #: recovery latency than pull).  0.0 when nothing was recovered.
    mean_recovery_latency: float

    @property
    def delivery_rate(self) -> float:
        """The paper's headline metric."""
        if self.expected == 0:
            return 1.0
        return self.delivered / self.expected

    @property
    def baseline_rate(self) -> float:
        """Delivery rate recovery aside (what "no recovery" would measure
        if loss draws were identical)."""
        if self.expected == 0:
            return 1.0
        return self.delivered_normally / self.expected

    @property
    def recovered_fraction(self) -> float:
        """Share of fulfilled pairs owed to recovery."""
        if self.delivered == 0:
            return 0.0
        return self.recovered / self.delivered

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DeliveryStats rate={self.delivery_rate:.3f} "
            f"baseline={self.baseline_rate:.3f} events={self.events}>"
        )


class DeliveryTracker:
    """Track expected vs. actual deliveries for every published event.

    ``compact=True`` switches the per-event records to node-id bitmaps
    (O(N/8) bytes per event instead of O(recipients) hash-set entries);
    behaviour is identical, only the representation -- and the
    speed/memory trade -- changes.  The builder enables it together
    with the columnar cache layout (``effective_cache_layout``).
    """

    def __init__(self, compact: bool = False) -> None:
        self._compact = compact
        self._record_cls = _CompactEventRecord if compact else _EventRecord
        self._records: Dict[EventId, Any] = {}
        self.untracked_deliveries = 0
        self.unexpected_deliveries = 0
        self.duplicate_deliveries = 0

    # ------------------------------------------------------------------
    # Recording (hot path)
    # ------------------------------------------------------------------
    def on_publish(self, event: Event, expected: Iterable[int]) -> None:
        """Register a published event with its ground-truth recipients."""
        self._records[event.event_id] = self._record_cls(
            event.publish_time, expected
        )

    def on_deliver(self, node_id: int, event: Event, recovered: bool, now: float) -> None:
        """Record one local delivery at ``node_id``.

        Deliveries outside the expected set and duplicates are counted
        separately and excluded from the rate -- both indicate substrate
        bugs and are asserted against in the test suite.
        """
        record = self._records.get(event.event_id)
        if record is None:
            self.untracked_deliveries += 1
            return
        if self._compact:
            byte = node_id >> 3
            mask = 1 << (node_id & 7)
            expected_bits = record.expected_bits
            if byte >= len(expected_bits) or not expected_bits[byte] & mask:
                self.unexpected_deliveries += 1
                return
            if record.delivered_bits[byte] & mask:
                self.duplicate_deliveries += 1
                return
            record.delivered_bits[byte] |= mask
            record.delivered_count += 1
        else:
            if node_id not in record.expected:
                self.unexpected_deliveries += 1
                return
            delivered = record.delivered
            if node_id in delivered:
                self.duplicate_deliveries += 1
                return
            delivered.add(node_id)
        latency = now - record.publish_time
        record.latency_sum += latency
        if recovered:
            record.recovered += 1
            record.recovered_latency_sum += latency

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(
        self,
        start: float = float("-inf"),
        end: float = float("inf"),
    ) -> DeliveryStats:
        """Aggregate over events published in ``[start, end)``."""
        events = expected = delivered = recovered = 0
        latency_sum = 0.0
        recovered_latency_sum = 0.0
        for record in self._records.values():
            if not start <= record.publish_time < end:
                continue
            events += 1
            expected += record.expected_count
            delivered += record.delivered_count
            recovered += record.recovered
            latency_sum += record.latency_sum
            recovered_latency_sum += record.recovered_latency_sum
        mean_latency = latency_sum / delivered if delivered else 0.0
        mean_recovery_latency = (
            recovered_latency_sum / recovered if recovered else 0.0
        )
        return DeliveryStats(
            events=events,
            expected=expected,
            delivered=delivered,
            delivered_normally=delivered - recovered,
            recovered=recovered,
            mean_latency=mean_latency,
            mean_recovery_latency=mean_recovery_latency,
        )

    def time_series(
        self,
        bin_width: float,
        start: float = 0.0,
        end: Optional[float] = None,
        include_recovery: bool = True,
    ) -> TimeSeries:
        """Delivery rate vs. publish time (the paper's Figure 3 curves).

        Each bin aggregates the events published inside it; its value is
        the fraction of their expected deliveries eventually fulfilled
        (optionally counting only normal routing, for baseline curves).
        Empty bins yield ``None`` values.
        """
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {bin_width}")
        if end is None:
            end = max(
                (record.publish_time for record in self._records.values()),
                default=start,
            )
        bin_count = max(1, int((end - start) / bin_width + 1e-9))
        expected_by_bin = [0] * bin_count
        delivered_by_bin = [0] * bin_count
        for record in self._records.values():
            index = int((record.publish_time - start) / bin_width)
            if index < 0 or index >= bin_count:
                continue
            expected_by_bin[index] += record.expected_count
            fulfilled = record.delivered_count
            if not include_recovery:
                fulfilled -= record.recovered
            delivered_by_bin[index] += fulfilled
        times = [start + (index + 0.5) * bin_width for index in range(bin_count)]
        values: List[Optional[float]] = [
            (delivered_by_bin[index] / expected_by_bin[index])
            if expected_by_bin[index]
            else None
            for index in range(bin_count)
        ]
        return TimeSeries(times, values)

    def event_count(self) -> int:
        return len(self._records)

    def pending_pairs(self) -> int:
        """Expected deliveries still unfulfilled (useful in tests)."""
        return sum(
            record.expected_count - record.delivered_count
            for record in self._records.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DeliveryTracker events={len(self._records)}>"
