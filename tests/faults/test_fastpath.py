"""Setup-time binding wherever the variant changes the work or the draws.

The loss draws (`Link._drop`, `Network._oob_drop`), `Dispatcher.receive`
and recovery forwarding are bound once at construction to the variant
the configuration needs: a lossless channel draws no randomness, and
without a degradation config no per-peer bookkeeping runs.  These tests
pin the binding decisions themselves, so a future change cannot
silently re-route a run through a variant that does more work or draws
differently (a regression the behavioural suites could miss).
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, GilbertElliottConfig, scripted_crashes
from repro.metrics.delivery import DeliveryTracker
from repro.network.link import Link
from repro.network.network import Network
from repro.recovery.degrade import DegradationConfig
from repro.recovery.digest import PublisherPullGossip
from repro.scenarios.builder import Simulation
from repro.scenarios.config import SimulationConfig


def _config(**overrides) -> SimulationConfig:
    base = dict(
        n_dispatchers=8,
        n_patterns=8,
        algorithm="combined-pull",
        error_rate=0.1,
        publish_rate=10.0,
        buffer_size=100,
        sim_time=1.0,
        measure_start=0.2,
        measure_end=0.8,
        seed=3,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _a_link(network: Network) -> Link:
    return next(iter(network.links()))


class TestFastPathBinding:
    def test_no_faults_binds_fast_variants(self):
        simulation = Simulation(_config())
        network = simulation.network
        # Lossless out-of-band channel: no draw.
        assert network._oob_drop.__func__ is Network._oob_drop_never
        link = _a_link(network)
        assert link._drop.__func__ is Link._drop_bernoulli
        # No degradation config -> no per-peer bookkeeping in forwarding.
        for dispatcher in simulation.system.dispatchers:
            recovery = dispatcher.recovery
            assert recovery.peers is None
            assert (
                recovery.forward_along_pattern.__func__
                is type(recovery)._forward_along_pattern_plain
            )
            assert dispatcher.receive.__func__ is type(dispatcher)._receive_plain

    def test_lossless_link_binds_lossless_transmit(self):
        simulation = Simulation(_config(error_rate=0.0))
        assert _a_link(simulation.network)._drop.__func__ is Link._drop_never

    def test_loss_model_binds_model_draw(self):
        plan = FaultPlan(link_loss=GilbertElliottConfig.from_epsilon(0.1))
        link = _a_link(Simulation(_config(faults=plan)).network)
        assert link._drop.__func__ is Link._drop_model
        # A loss model outranks ε: changing it leaves the model in charge.
        link.set_error_rate(0.0)
        assert link._drop.__func__ is Link._drop_model

    def test_fault_plan_binds_checked_variants(self):
        plan = FaultPlan(crashes=scripted_crashes([1], at=0.5, duration=0.2))
        simulation = Simulation(
            _config(faults=plan, degradation=DegradationConfig())
        )
        for dispatcher in simulation.system.dispatchers:
            recovery = dispatcher.recovery
            assert recovery.peers is not None
            assert (
                recovery.forward_along_pattern.__func__
                is type(recovery)._forward_along_pattern_tracked
            )
            assert dispatcher.receive.__func__ is type(dispatcher)._receive_tracked

    def test_set_error_rate_rebinds_transmit(self):
        simulation = Simulation(_config(error_rate=0.0))
        link = _a_link(simulation.network)
        assert link._drop.__func__ is Link._drop_never
        link.set_error_rate(0.2)
        assert link._drop.__func__ is Link._drop_bernoulli
        link.set_error_rate(0.0)
        assert link._drop.__func__ is Link._drop_never

    def test_set_oob_error_rate_rebinds_send(self):
        simulation = Simulation(_config())
        network = simulation.network
        network.set_oob_error_rate(0.5)
        assert network._oob_drop.__func__ is Network._oob_drop_bernoulli
        assert network.config.oob_error_rate == 0.5
        network.set_oob_error_rate(0.0)
        assert network._oob_drop.__func__ is Network._oob_drop_never

    def test_oob_error_rate_binds_bernoulli_draw(self):
        simulation = Simulation(_config(oob_error_rate=0.2))
        network = simulation.network
        assert network._oob_drop.__func__ is Network._oob_drop_bernoulli

    def test_oob_loss_model_binds_model_draw(self):
        plan = FaultPlan(oob_loss=GilbertElliottConfig.from_epsilon(0.1))
        network = Simulation(_config(faults=plan)).network
        assert network._oob_drop.__func__ is Network._oob_drop_model
        # A loss model outranks the rate: changing it leaves the model in
        # charge.
        network.set_oob_error_rate(0.5)
        assert network._oob_drop.__func__ is Network._oob_drop_model


class TestFusedHopBinding:
    """What the per-hop event path (``Dispatcher._receive_plain``) calls
    is decided once at set-up, like the fault-free variants above."""

    @pytest.mark.parametrize(
        "algorithm",
        ["subscriber-pull", "publisher-pull", "combined-pull", "random-pull",
         "ack"],
    )
    def test_observing_algorithms_bind_their_observer(self, algorithm):
        simulation = Simulation(_config(algorithm=algorithm))
        for dispatcher in simulation.system.dispatchers:
            observe = dispatcher.observe_event
            assert observe.__self__ is dispatcher.recovery
            assert observe.__func__ is type(dispatcher.recovery).on_event_received

    @pytest.mark.parametrize(
        "algorithm",
        ["none", "push", "random-push", "adaptive-push", "gossip-dissemination"],
    )
    def test_non_observing_algorithms_bind_nothing(self, algorithm):
        simulation = Simulation(_config(algorithm=algorithm))
        for dispatcher in simulation.system.dispatchers:
            assert dispatcher.observe_event is None

    @pytest.mark.parametrize("algorithm", ["publisher-pull", "combined-pull"])
    def test_route_dict_is_the_one_recovery_reads(self, algorithm):
        """The dispatcher writes routes into the dict ``recovery.routes``
        wraps, and a restart clears that same dict in place."""
        simulation = Simulation(_config(algorithm=algorithm))
        for dispatcher in simulation.system.dispatchers:
            learned = dispatcher.routes
            assert type(learned) is dict
            assert dispatcher.recovery.routes._routes is learned
            learned[99] = (99,)
            dispatcher.recovery.on_restart()
            assert dispatcher.routes is learned
            assert dispatcher.recovery.routes._routes is learned
            assert not learned

    @pytest.mark.parametrize(
        "algorithm",
        ["none", "push", "random-push", "adaptive-push", "subscriber-pull",
         "random-pull", "ack", "gossip-dissemination"],
    )
    def test_other_algorithms_have_no_route_dict(self, algorithm):
        simulation = Simulation(_config(algorithm=algorithm))
        for dispatcher in simulation.system.dispatchers:
            assert dispatcher.routes is None

    def test_combined_pull_sends_publisher_digests(self):
        """Routes bound too early (before the pull base creates its
        buffer) would leave every round without a route: no
        publisher-based digest would ever be sent."""
        simulation = Simulation(_config())
        digests = []
        for dispatcher in simulation.system.dispatchers:
            def spy(neighbor, payload, size_bits=None, send=dispatcher.send_gossip):
                if isinstance(payload, PublisherPullGossip):
                    digests.append(payload)
                send(neighbor, payload, size_bits)

            dispatcher.send_gossip = spy
        simulation.run()
        assert len(digests) > 0

    def test_delivery_callback_is_the_tracker_method(self):
        simulation = Simulation(_config())
        for dispatcher in simulation.system.dispatchers:
            callback = dispatcher.on_deliver
            assert callback.__self__ is simulation.tracker
            assert callback.__func__ is DeliveryTracker.on_deliver
        assert not hasattr(Simulation, "_on_deliver")

    def test_match_memo_is_the_live_table_memo(self):
        simulation = Simulation(_config(n_patterns=4))
        dispatcher = simulation.system.dispatchers[0]
        table = dispatcher.table
        assert dispatcher._match_memo is table._match_cache
        # Table mutations clear the memo in place; the dispatcher's
        # reference must keep pointing at the one the table fills.
        table.matching_directions_for(0, (0,))
        assert dispatcher._match_memo
        table.add(3, 99)
        assert not dispatcher._match_memo
        table.remove(3, 99)
        table.matching_directions_for(0, (0,))
        assert dispatcher._match_memo is table._match_cache
        assert dispatcher._match_memo
