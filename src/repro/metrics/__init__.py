"""Measurement: delivery rates, traffic counters, time series.

The paper's two headline metrics are implemented here:

* **delivery rate** (Section IV-B): "the ratio between the number of events
  correctly received by a process and those that would be received in a
  fully reliable scenario" -- :class:`~repro.metrics.delivery.DeliveryTracker`
  computes it from ground-truth expected recipients, both aggregate and as
  a time series binned by publish time;
* **overhead** (Section IV-E): gossip messages sent per dispatcher and the
  gossip/event message ratio --
  :class:`~repro.metrics.counters.MessageCounters` reads them off the
  network's traffic tallies.
"""

from repro.metrics.counters import MessageCounters, conservation_violations
from repro.metrics.delivery import DeliveryTracker, DeliveryStats
from repro.metrics.timeseries import TimeSeries, bin_series

__all__ = [
    "MessageCounters",
    "conservation_violations",
    "DeliveryTracker",
    "DeliveryStats",
    "TimeSeries",
    "bin_series",
]
