import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from proxycal._rng import BLOCK, substream


@given(
    seed=st.integers(0, 2**64 - 1),
    blocks=st.lists(st.integers(0, 40), min_size=1, max_size=8),
)
def test_pieces_equal_one_read_and_fresh_streams(seed, blocks):
    counts = [BLOCK * b for b in blocks]
    whole = substream(seed, 0).random(sum(counts))
    stream = substream(seed, 0)
    at = 0
    for count in counts:
        piece = stream.random(count)
        assert piece.tobytes() == whole[at : at + count].tobytes()
        # a fresh stream moved on by whole Philox blocks starts where the piece does
        fresh = substream(seed, 0)
        fresh.bit_generator.advance(at // BLOCK)
        assert piece.tobytes() == fresh.random(count).tobytes()
        at += count


def test_paths_are_distinct_streams():
    a = substream(3, 0).random(8)
    assert not np.array_equal(a, substream(3, 1).random(8))
    assert not np.array_equal(a, substream(4, 0).random(8))
