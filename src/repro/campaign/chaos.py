"""Fault injection for the harness itself (test-only).

:mod:`repro.faults` proves the *protocol* recovers by deterministically
injecting crashes into the simulated system; :class:`ChaosExecutor` does
the same for the campaign runtime by sabotaging scripted cells inside the
worker process:

* ``"kill"``  -- the worker SIGKILLs itself mid-cell (exercises the
  broken-pool rebuild and worker-crash retry path);
* ``"hang"``  -- the worker sleeps far past any reasonable deadline
  (exercises hung-worker detection: pool kill + timeout retry);
* ``"raise"`` -- the cell raises a :class:`ChaosError` (exercises the
  plain exception retry with backoff).

Events are keyed by ``(index, attempt)``, so "fail on the first attempt,
succeed on the retry" is one event -- the schedule is fully deterministic
and the executor's recovery must converge to the same results a
:class:`~repro.parallel.executor.SerialExecutor` produces.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Tuple, TypeVar

from repro.campaign.executor import ProcessExecutor

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["ChaosError", "ChaosEvent", "ChaosExecutor"]

_ACTIONS = ("kill", "hang", "raise")


class ChaosError(RuntimeError):
    """The deterministic 'transient' failure a scripted cell raises."""


@dataclass(frozen=True)
class ChaosEvent:
    """Sabotage one (cell, attempt) pair."""

    #: Position of the victim cell in the submitted sequence.
    index: int
    #: "kill", "hang", or "raise".
    action: str
    #: Which execution attempt to sabotage (1-based; retries increment).
    attempt: int = 1

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"action must be one of {_ACTIONS}, got {self.action!r}")
        if self.index < 0:
            raise ValueError(f"index must be >= 0, got {self.index}")
        if self.attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {self.attempt}")


def _chaos_invoke(action: str, fn: Callable[[T], R], item: T) -> R:
    """Runs *in the worker*: apply the scripted action, then (if the
    action lets execution continue) run the real cell."""
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "hang":
        # Sleeping *is* the injected fault: the coordinator's deadline
        # reaper must kill this worker long before the hour is up.
        time.sleep(3600.0)
        raise ChaosError("hung cell outlived its executioner")
    elif action == "raise":
        raise ChaosError("scripted transient failure")
    return fn(item)


class ChaosExecutor(ProcessExecutor):
    """A :class:`~repro.campaign.executor.ProcessExecutor` with a sabotage
    script.

    Cells not named in ``events`` run normally; a scripted (index,
    attempt) pair routes through :func:`_chaos_invoke` in the worker.
    """

    def __init__(self, jobs: int, events: Iterable[ChaosEvent], **kwargs: object) -> None:
        super().__init__(jobs, **kwargs)  # type: ignore[arg-type]
        self._events: Dict[Tuple[int, int], str] = {}
        for event in events:
            key = (event.index, event.attempt)
            if key in self._events:
                raise ValueError(f"duplicate chaos event for cell/attempt {key}")
            self._events[key] = event.action

    def _submit(
        self,
        pool: ProcessPoolExecutor,
        fn: Callable[[T], R],
        item: T,
        index: int,
        attempt: int,
    ) -> "Future[R]":
        action = self._events.get((index, attempt))
        if action is None:
            return pool.submit(fn, item)
        return pool.submit(_chaos_invoke, action, fn, item)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ChaosExecutor jobs={self.jobs} events={len(self._events)}>"
