"""Counter-based random-number streams.

Every stochastic routine in this package draws from a stream identified by
``(master_seed, stream_index)``. Streams are backed by the Philox
counter-based bit generator, so distinct indices give statistically
independent sequences and a replication's stream is a pure function of its
index: the result of replication ``i`` does not depend on how many
replications run, in what order, or in which process. That holds only if
the code drawing a replication is a pure function of its generator, which
is why :func:`nbbounds.simulation.replicate` may run it in forked workers.

:func:`streams` walks many streams of one seed with a single generator,
re-keyed in place at the start of each stream; that draws exactly what a
fresh ``RngHandle(seed, i).generator()`` draws, without building one per
stream. A caller must be done with the yielded generator before asking for
the next stream and must not keep it: the next step re-keys it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

from ._lazy import np
from .errors import DomainError

__all__ = ["RngHandle", "streams"]

_KEY_LIMIT = 1 << 64


def _key_word(value, name: str) -> int:
    """``value`` as an int in [0, 2**64), or a DomainError naming it."""
    try:
        word = operator.index(value)
    except TypeError:
        raise DomainError(
            "invalid-parameter", f"{name} must be an integer, got {value!r}"
        ) from None
    if not 0 <= word < _KEY_LIMIT:
        raise DomainError(
            "invalid-parameter", f"{name} must lie in [0, 2**64), got {word}"
        )
    return word


@dataclass(frozen=True)
class RngHandle:
    """Value identifying one reproducible random stream.

    Handles are immutable; copy one per stream and call :meth:`generator`
    to obtain a stateful ``numpy.random.Generator`` positioned at the start
    of that stream. Identical handles always yield identical sequences.
    Both fields must be integers in ``[0, 2**64)``.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "master_seed", _key_word(self.master_seed, "seed"))
        object.__setattr__(
            self, "stream_index", _key_word(self.stream_index, "stream_index")
        )

    def generator(self) -> np.random.Generator:
        """Fresh generator at the start of this stream."""
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def streams(seed: int, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """One generator, re-keyed in place to the start of stream ``(seed, i)`` per index.

    The generator is built once through :meth:`RngHandle.generator`. Each
    step sets its Philox key to ``[seed, i]``, its counter to 0 and empties
    its output buffers, including a buffered 32-bit half, so the draws equal
    those of ``RngHandle(seed, i).generator()``. The yielded object is the
    same every time: use it before advancing and do not keep it.
    """
    handle = RngHandle(seed, 0)
    gen = handle.generator()
    bit_generator = gen.bit_generator
    key = np.array([handle.master_seed, 0], dtype=np.uint64)
    start = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i in indices:
        key[1] = _key_word(i, "stream_index")
        bit_generator.state = start
        yield gen


def as_generator(rng: "RngHandle | np.random.Generator") -> np.random.Generator:
    """Accept either a handle (fresh stream) or a live generator."""
    if isinstance(rng, RngHandle):
        return rng.generator()
    return rng
