"""Scalability extension: 10³..10⁵ dispatchers on the compact substrate.

Beyond the paper: Figure 6 stops at N = 200, where every algorithm's
scaling question is still about protocol dynamics, not substrate cost.
This experiment takes the substrate (scale-free overlay, aggregate
workload, splitmix64 gossip streams from N = 1000) far enough that memory
and wall time become the interesting curves.  The benchmark runs reduced
sizes to stay inside the suite's time budget; docs/EXPERIMENTS.md records
the full sweep to N = 10⁵.
"""

from __future__ import annotations

from benchmarks._helpers import run_once
from repro.scenarios.experiments import fig_scalability

#: Small enough for the bench suite, large enough that the scale-free
#: overlay has real hubs and the splitmix64 gossip RNG
#: (``compact_state``) switches on at the top size.
BENCH_SIZES = (200, 500, 1_000)


def test_figS_scale_out():
    result = run_once(fig_scalability, sizes=BENCH_SIZES)
    curves = result.curves

    # Recovery keeps working at every size: combined pull on a lossy
    # scale-free overlay must deliver something at each point, and the
    # curves must be fully populated.
    for name in ("delivery_rate", "messages_per_event",
                 "wall_seconds", "peak_rss_mb"):
        assert len(curves[name]) == len(BENCH_SIZES), name
    assert all(rate > 0.0 for rate in curves["delivery_rate"])

    # The substrate scales sub-quadratically: a 5x size step may not cost
    # more than ~25x wall time (generous -- measured steps are near-linear
    # in N at fixed per-node rate, but CI hosts are noisy).
    wall = curves["wall_seconds"]
    assert wall[-1] <= max(wall[0], 0.05) * 25 * (
        BENCH_SIZES[-1] / BENCH_SIZES[0] / 5
    )

    # Peak RSS is a high-water mark sampled in ascending-N order, so the
    # series must be monotone non-decreasing by construction.
    peaks = curves["peak_rss_mb"]
    assert peaks == sorted(peaks)
