"""Named random streams.

A simulation draws randomness for many independent purposes: the topology,
the subscription assignment, event payloads, publish timing, link loss,
gossip fan-out, reconfiguration choices...  If all of them shared one
``random.Random``, then changing (say) the recovery algorithm would perturb
the workload and the comparison between algorithms would be apples to
oranges.

:class:`RandomStreams` derives one independent ``random.Random`` per *name*
from a single master seed, so that:

* the same master seed and name always yield the same stream, and
* streams with different names are statistically independent, regardless of
  the order or the number of draws made from each.

This module is the *only* sanctioned home of the ``random`` module: everything
else must take an injected ``random.Random``.  A draw from the module-level
generator changes the frozen run signatures the test suite pins, and lint
rule REP204 keeps each subsystem on its own named streams (see
``docs/LINTING.md``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterator, Protocol

__all__ = ["CompactRandom", "RandomSource", "RandomStreams"]

_MASK64 = (1 << 64) - 1


class RandomSource(Protocol):
    """The draw interface node-local consumers actually use.

    Both ``random.Random`` and :class:`CompactRandom` satisfy it, so code
    that only flips coins and picks peers can accept either without caring
    which generator backs the stream.
    """

    def random(self) -> float: ...

    def randrange(self, n: int) -> int: ...


class CompactRandom:
    """A 2-word deterministic PRNG (splitmix64) for per-node streams.

    ``random.Random`` carries the full 2.5 KB Mersenne Twister state; with
    one gossip stream per dispatcher that is ~250 MB at 10^5 nodes --
    second-largest per-node structure in the scale probes.  Gossip peer
    selection needs only ``random()`` and ``randrange()`` draws of decent
    uniformity, which splitmix64 (a 64-bit state, well-tested mixer) gives
    at ~50 bytes per instance.

    Deterministic: the same seed always yields the same draw sequence.
    Not a drop-in ``random.Random``: only the :class:`RandomSource` subset
    is provided, on purpose -- consumers needing richer draws should take
    a real ``Random`` stream.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def _next(self) -> int:
        self._state = state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with the standard 53-bit resolution."""
        return (self._next() >> 11) * (2.0 ** -53)

    def randrange(self, n: int) -> int:
        """Uniform int in [0, n) (Lemire multiply-shift; the ~n/2^64
        selection bias is far below anything a simulation could resolve)."""
        if n <= 0:
            raise ValueError(f"empty range for randrange({n})")
        return (self._next() * n) >> 64

    def getstate(self) -> int:
        return self._state

    def setstate(self, state: int) -> None:
        self._state = state & _MASK64

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CompactRandom state={self._state:#x}>"


class RandomStreams:
    """A factory of deterministic, independent random streams.

    >>> streams = RandomStreams(42)
    >>> a = streams.stream("workload")
    >>> b = streams.stream("loss")
    >>> a is streams.stream("workload")
    True
    >>> RandomStreams(42).stream("workload").random() == \
        RandomStreams(42).stream("workload").random()
    True
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream registered under ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(self._derive_seed(name))
            self._streams[name] = stream
        return stream

    def substreams(self, name: str, count: int) -> list[random.Random]:
        """Return ``count`` independent streams named ``name[0..count)``.

        Useful for per-dispatcher randomness (e.g. gossip decisions), where
        each node must own an independent stream so that node-local behaviour
        does not depend on global event interleaving.
        """
        return [self.stream(f"{name}[{i}]") for i in range(count)]

    def compact_stream(self, name: str) -> CompactRandom:
        """A :class:`CompactRandom` seeded exactly like ``stream(name)``.

        Unlike :meth:`stream` the result is *not* cached -- per-node
        streams at 10^5 nodes would otherwise leave a 10^5-entry name
        index behind -- so each call returns a fresh generator at the
        same initial state.  Callers own the instance they get.
        """
        return CompactRandom(self._derive_seed(name))

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def names(self) -> Iterator[str]:
        """Iterate over the names of streams created so far."""
        return iter(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RandomStreams seed={self.master_seed} streams={len(self._streams)}>"
