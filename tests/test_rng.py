import numpy as np
import pytest

from nbbounds import DomainError, RngHandle
from nbbounds.rng import streams

SEEDS = (0, 42, 2**64 - 1)
STREAMS = (0, 1, 17, 2**63, 2**64 - 1)


def _draws(gen: np.random.Generator) -> list[np.ndarray]:
    # the odd-count uint32 draw leaves a buffered 32-bit half behind
    return [
        gen.gamma(2.5, 1.5, size=4),
        gen.poisson(30.0, size=3),
        gen.random(3),
        gen.integers(0, 1000, size=3, dtype=np.uint32),
    ]


class TestHandleValidation:
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7", None])
    def test_rejects_seed_outside_uint64(self, seed):
        with pytest.raises(DomainError, match="invalid-parameter: seed") as info:
            RngHandle(seed)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("index", [-1, 2**64, 2.0])
    def test_rejects_bad_stream_index(self, index):
        with pytest.raises(DomainError, match="stream_index"):
            RngHandle(0, index)

    def test_accepts_integer_like_values(self):
        handle = RngHandle(np.uint64(2**64 - 1), np.int32(3))
        assert handle == RngHandle(2**64 - 1, 3)
        assert type(handle.master_seed) is int

    def test_streams_validate_seed_and_indices(self):
        with pytest.raises(DomainError, match="seed"):
            next(streams(-1, [0]))
        with pytest.raises(DomainError, match="stream_index"):
            list(streams(0, [0, 2**64]))


class TestRekeyedStreams:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_equal_fresh_generators(self, seed):
        for index, gen in zip(STREAMS, streams(seed, STREAMS)):
            expected = _draws(RngHandle(seed, index).generator())
            got = _draws(gen)
            # each stream starts after the previous one left a buffered half
            assert gen.bit_generator.state["has_uint32"] == 1
            for a, b in zip(expected, got):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_one_generator_is_reused(self):
        gens = [id(gen) for gen in streams(5, range(4))]
        assert len(set(gens)) == 1
