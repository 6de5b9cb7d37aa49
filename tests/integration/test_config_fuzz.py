"""Config fuzzing: random small-but-valid configurations must always run
to completion with sane accounting (no crashes, no duplicate or
unexpected deliveries, conservation of messages of every kind)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import ChurnProcess, FaultPlan, GilbertElliottConfig
from repro.metrics import conservation_violations
from repro.recovery import ALGORITHMS
from repro.recovery.degrade import DegradationConfig
from repro.scenarios.config import SimulationConfig
from repro.scenarios.runner import run_scenario

config_strategy = st.fixed_dictionaries(
    {
        "n_dispatchers": st.integers(min_value=2, max_value=16),
        "n_patterns": st.integers(min_value=2, max_value=12),
        "pi_max": st.integers(min_value=0, max_value=2),
        "publish_rate": st.sampled_from([5.0, 15.0]),
        "error_rate": st.sampled_from([0.0, 0.1, 0.4]),
        "buffer_size": st.sampled_from([0, 20, 200]),
        "gossip_interval": st.sampled_from([0.02, 0.1]),
        "p_forward": st.sampled_from([0.0, 0.5, 1.0]),
        "algorithm": st.sampled_from(sorted(ALGORITHMS)),
        "tree_style": st.sampled_from(["bushy", "uniform", "path", "star"]),
        "cache_policy": st.sampled_from(["fifo", "lru", "random"]),
        "seed": st.integers(min_value=0, max_value=10_000),
        "reconfiguration_interval": st.sampled_from([None, 0.3]),
    }
)


@settings(max_examples=25, deadline=None)
@given(params=config_strategy)
def test_random_configs_complete_sanely(params):
    pi_max = min(params["pi_max"], params["n_patterns"])
    config = SimulationConfig(
        sim_time=1.5,
        measure_start=0.2,
        measure_end=1.0,
        **{**params, "pi_max": pi_max},
    )
    result = run_scenario(config)
    assert 0.0 <= result.delivery_rate <= 1.0
    assert result.unexpected_deliveries == 0
    assert result.duplicate_deliveries == 0
    assert conservation_violations(result.messages) == []


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_faulted_config_conserves_every_kind(algorithm):
    """Every drop path at once -- crashed destinations (churn), burst link
    loss, link outages from reconfiguration, out-of-band loss, and the
    degradation layer's skipped sends -- still settles each counted send
    at most once, for every message kind."""
    config = SimulationConfig(
        n_dispatchers=16,
        n_patterns=8,
        pi_max=2,
        publish_rate=15.0,
        buffer_size=100,
        gossip_interval=0.05,
        sim_time=1.5,
        measure_start=0.2,
        measure_end=1.0,
        algorithm=algorithm,
        reconfiguration_interval=0.3,
        oob_error_rate=0.1,
        faults=FaultPlan(
            churn=ChurnProcess(rate=4.0, mean_downtime=0.3, start=0.2),
            link_loss=GilbertElliottConfig.from_epsilon(
                0.1, mean_burst_length=5.0
            ),
        ),
        degradation=DegradationConfig(),
        seed=4,
    )
    result = run_scenario(config)
    assert result.faults.crashes > 0
    assert result.messages["dropped_gossip"] + result.messages["dropped_event"] > 0
    assert result.unexpected_deliveries == 0
    assert result.duplicate_deliveries == 0
    assert conservation_violations(result.messages) == []
