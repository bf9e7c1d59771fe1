"""Counter-based random-number streams.

Every stochastic routine in this package draws from a stream identified by
``(master_seed, stream_index)``. Streams are backed by the Philox
counter-based bit generator, so distinct indices give statistically
independent sequences and a replication's stream is a pure function of its
index: the result of replication ``i`` does not depend on how many
replications run or in what order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngHandle"]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngHandle:
    """Value identifying one reproducible random stream.

    Handles are immutable; copy one per stream and call :meth:`generator`
    to obtain a stateful ``numpy.random.Generator`` positioned at the start
    of that stream. Identical handles always yield identical sequences.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if not 0 <= self.stream_index <= _MASK64:
            raise ValueError("stream_index must fit in 64 unsigned bits")

    def generator(self) -> np.random.Generator:
        """Fresh generator at the start of this stream."""
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def as_generator(rng: "RngHandle | np.random.Generator") -> np.random.Generator:
    """Accept either a handle (fresh stream) or a live generator."""
    if isinstance(rng, RngHandle):
        return rng.generator()
    return rng
