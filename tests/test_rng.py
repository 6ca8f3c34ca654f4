"""Deterministic generator tests.

The generator is part of the package contract (results must reproduce
across machines), so besides behavioral properties these tests pin exact
output values. The splitmix64 vectors match the reference implementation's
published outputs for seeds 0 and 1234567.
"""

import math

import pytest
from hypothesis import given, strategies as st

from conftest import normal
from tscnet.rng import Xorshift64Star, derive_seed, splitmix64


def test_splitmix64_reference_vectors():
    out0, _ = splitmix64(0)
    assert out0 == 16294208416658607535
    out1, next_state = splitmix64(1234567)
    assert out1 == 6457827717110365317
    assert next_state == 1234567 + 0x9E3779B97F4A7C15


def test_pinned_u64_stream():
    rng = Xorshift64Star(7)
    assert [rng.next_u64() for _ in range(3)] == [
        1507201545562260538,
        4764137222614882372,
        6531706806203711957,
    ]


def test_pinned_random_stream():
    rng = Xorshift64Star(7)
    assert [rng.random() for _ in range(3)] == [
        0.08170555950360558,
        0.25826439633890563,
        0.354084535466221,
    ]


def test_pinned_derive_seed():
    assert derive_seed(7, 0) == 7191089600892374487
    assert derive_seed(7, 1) == 17039259473404265729
    assert derive_seed(0, 0) == 16294208416658607535


def test_same_seed_same_sequence():
    a = Xorshift64Star(123)
    b = Xorshift64Star(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_diverge():
    a = Xorshift64Star(1)
    b = Xorshift64Star(2)
    assert [a.next_u64() for _ in range(5)] != [b.next_u64() for _ in range(5)]


def test_zero_seed_works():
    rng = Xorshift64Star(0)
    assert rng.next_u64() == 8916199331640804048


def test_random_unit_interval():
    rng = Xorshift64Star(99)
    for _ in range(1000):
        x = rng.random()
        assert 0.0 <= x < 1.0


def test_uniform_bounds():
    rng = Xorshift64Star(5)
    for _ in range(500):
        x = rng.uniform(-2.5, 0.5)
        assert -2.5 <= x < 0.5


def test_below_range_and_errors():
    rng = Xorshift64Star(3)
    for _ in range(500):
        assert 0 <= rng.below(7) < 7
    assert rng.below(1) == 0
    with pytest.raises(ValueError):
        rng.below(0)
    with pytest.raises(ValueError):
        rng.below(-3)


def test_shuffle_is_permutation_and_pinned():
    seq = list(range(8))
    Xorshift64Star(7).shuffle(seq)
    assert sorted(seq) == list(range(8))
    assert seq == [3, 0, 7, 4, 6, 5, 1, 2]


def test_shuffle_deterministic():
    a = list(range(30))
    b = list(range(30))
    Xorshift64Star(21).shuffle(a)
    Xorshift64Star(21).shuffle(b)
    assert a == b


def test_derive_seed_streams_are_distinct():
    seeds = {derive_seed(7, i) for i in range(200)}
    assert len(seeds) == 200
    streams = {Xorshift64Star(derive_seed(7, i)).next_u64() for i in range(50)}
    assert len(streams) == 50


def test_normal_moments():
    rng = Xorshift64Star(17)
    draws = [normal(rng) for _ in range(4000)]
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / (len(draws) - 1)
    assert abs(mean) < 0.08
    assert abs(math.sqrt(var) - 1.0) < 0.08


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=10**6))
def test_below_always_in_range(seed, n):
    assert 0 <= Xorshift64Star(seed).below(n) < n


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_random_always_in_unit_interval(seed):
    x = Xorshift64Star(seed).random()
    assert 0.0 <= x < 1.0
