"""Shared plumbing for the figure-reproduction benchmarks.

These are plain pytest tests: each runs its experiment once (the
experiments are deterministic simulations, so a second run would only
repeat the same computation), prints the paper-shaped table (visible with
``pytest benchmarks -s``) and asserts the qualitative shape the paper
reports; EXPERIMENTS.md records the paper-vs-measured comparison.  Timing
is the job of ``bench/``, not of these tests.

Set ``REPRO_PAPER_SCALE=1`` to run at the paper's full scale (N = 100,
25 s simulations) -- slower, but the same harness.
"""

from __future__ import annotations

#: Worker processes per figure grid.  Results are bit-identical at any
#: ``jobs``; two workers keep a 2-core host busy without oversubscribing it.
JOBS = 2


def run_once(experiment_fn, *args, **kwargs):
    """Run ``experiment_fn`` once and print its table."""
    result = experiment_fn(*args, **kwargs)
    print()
    print(result.to_table())
    return result


def curve_pairs(result, name):
    """(x, y) pairs of one curve, Nones skipped."""
    return [
        (x, y)
        for x, y in zip(result.x_values, result.curves[name])
        if y is not None
    ]
