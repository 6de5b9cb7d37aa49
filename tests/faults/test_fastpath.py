"""The fault layer must cost *nothing* when it is switched off.

PR 5 replaced per-event ``if faults:`` branches with setup-time method
binding: every hot-path entry point (`Link`'s loss draw, OOB send/deliver,
`Dispatcher.receive`, recovery forwarding) is bound to either a *fast*
variant (no fault or degradation bookkeeping at all) or a *checked*
variant at construction time.  These tests pin the binding decisions
themselves, so a future change cannot silently re-route the fault-free
path through the instrumented variants (a correctness-preserving but
performance-destroying regression the behavioural suites would miss).
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, GilbertElliottConfig, scripted_crashes
from repro.network.link import Link
from repro.network.network import Network
from repro.recovery.degrade import DegradationConfig
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
        assert network.fault_hooks is False
        # OOB path: no membership checks, no drop accounting.
        assert network.send_oob.__func__ is Network._send_oob_lossless
        assert network._deliver_oob.__func__ is Network._deliver_oob_fast
        link = _a_link(network)
        assert link._drop.__func__ is Link._drop_bernoulli
        assert link._deliver.__func__ is Link._deliver_fast
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
        network = simulation.network
        assert network.fault_hooks is True
        assert network.send_oob.__func__ is Network._send_oob_checked
        assert network._deliver_oob.__func__ is Network._deliver_oob_checked
        link = _a_link(network)
        assert link._deliver.__func__ is Link._deliver_checked
        for dispatcher in simulation.system.dispatchers:
            recovery = dispatcher.recovery
            assert recovery.peers is not None
            assert (
                recovery.forward_along_pattern.__func__
                is type(recovery)._forward_along_pattern_tracked
            )
            assert dispatcher.receive.__func__ is type(dispatcher)._receive_tracked

    def test_set_node_down_requires_fault_hooks(self):
        simulation = Simulation(_config())
        with pytest.raises(RuntimeError, match="fault_hooks=True"):
            simulation.network.set_node_down(0, True)

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
        assert network.send_oob.__func__ is Network._send_oob_bernoulli
        assert network.config.oob_error_rate == 0.5
        network.set_oob_error_rate(0.0)
        assert network.send_oob.__func__ is Network._send_oob_lossless
