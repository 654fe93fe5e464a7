"""selftest.Pcg64Draws reproduces numpy.random.default_rng(seed) bit for bit
for the two draws the package makes, interleaved in any order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockindex.algebra import GridSpec
from fockindex.selftest import Pcg64Draws, random_element

SEEDS = st.one_of(
    st.integers(0, 2**130),
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 17, 10**40, 2024, 2025, 2026, 2027, 2028]),
)
BOUND = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
UNIFORM = st.tuples(st.just("uniform"), BOUND, st.one_of(st.just(0.0), st.floats(0.0, 1e6)))
INTEGERS = st.tuples(st.just("integers"), st.sampled_from([1, 2, 3, 7, 2**31]))


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, draws=st.lists(st.one_of(UNIFORM, INTEGERS), max_size=100))
def test_draws_match_default_rng(seed, draws):
    ours, numpy_rng = Pcg64Draws(seed), np.random.default_rng(seed)
    for kind, *args in draws:
        if kind == "uniform":
            low, span = args
            high = low + span  # low == high when span is 0
            assert ours.uniform(low, high).hex() == float(numpy_rng.uniform(low, high)).hex()
        else:
            (k,) = args
            assert ours.integers(0, k) == int(numpy_rng.integers(0, k))


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: rng.integers(0, 2**32),
        lambda rng: rng.integers(-(2**40), 0),
        lambda rng: rng.integers(0, 0),
        lambda rng: rng.integers(5, 3),
    ],
    ids=["2**32 values", "2**40 values", "empty", "reversed"],
)
def test_ranges_outside_the_supported_one_raise(draw):
    with pytest.raises(ValueError):
        draw(Pcg64Draws(1))


def test_a_negative_seed_raises():
    with pytest.raises(ValueError):
        Pcg64Draws(-1)


@pytest.mark.parametrize("seed", [2024, 2028])
def test_random_element_takes_either_generator(seed):
    grid = GridSpec(2, 10)
    ours, numpy_rng = Pcg64Draws(seed), np.random.default_rng(seed)
    for _ in range(20):
        a, b = random_element(ours, grid), random_element(numpy_rng, grid)
        assert np.array_equal(a.samples, b.samples) and a.tail == b.tail
