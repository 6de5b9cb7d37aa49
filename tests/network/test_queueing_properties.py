"""Property tests of the link queueing model."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.message import Message, MessageKind
from repro.network.network import Network, NetworkConfig
from repro.sim.engine import Simulator
from tests.network.test_link import Recorder


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=100_000), min_size=1, max_size=30
    )
)
def test_fifo_order_and_exact_latency(sizes):
    """Messages leave in order; each arrival time equals the cumulative
    serialization of everything before it plus propagation."""
    sim = Simulator()
    config = NetworkConfig(
        bandwidth_bps=1_000_000.0, propagation_delay=0.003, error_rate=0.0
    )
    network = Network(sim, config, random.Random(0))
    a, b = Recorder(0, sim), Recorder(1, sim)
    network.add_node(a)
    network.add_node(b)
    network.add_link(0, 1)
    for index, size in enumerate(sizes):
        network.send(0, 1, Message(MessageKind.EVENT, index, 0, size_bits=size))
    sim.run()
    payloads = [m.payload for _, m, _ in b.received]
    assert payloads == list(range(len(sizes)))
    cumulative = 0.0
    for (arrival, message, _), size in zip(b.received, sizes):
        cumulative += size / config.bandwidth_bps
        assert arrival == pytest.approx(cumulative + config.propagation_delay)


@settings(max_examples=20, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=50),
    eps=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(),
)
def test_loss_never_reorders_survivors(count, eps, seed):
    sim = Simulator()
    config = NetworkConfig(error_rate=eps)
    network = Network(sim, config, random.Random(seed))
    a, b = Recorder(0, sim), Recorder(1, sim)
    network.add_node(a)
    network.add_node(b)
    network.add_link(0, 1)
    for index in range(count):
        network.send(0, 1, Message(MessageKind.EVENT, index, 0))
    sim.run()
    payloads = [m.payload for _, m, _ in b.received]
    assert payloads == sorted(payloads)
    # Accounting closes: sent == delivered + lost.
    kind = MessageKind.EVENT
    assert network.sent_tally[kind] == count
    assert network.delivered_tally[kind] + network.dropped_tally[kind] == count
