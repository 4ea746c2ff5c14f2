import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab import seeding
from driftlab.seeding import mix64, path_seed, pcg64_states

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_stream(seed, n):
    """The published 64-bit split-mix sequence, reimplemented from its
    definition as an oracle."""
    out = []
    state = seed
    for _ in range(n):
        state = (state + GAMMA) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append((z ^ (z >> 31)) & MASK)
    return out


def test_mix64_matches_published_finalizer():
    # Anchor: first output of the reference stream from seed 0 is the
    # widely quoted test vector.
    ref = reference_stream(0, 5)
    assert ref[0] == 0xE220A8397B1DCDAF
    states = [(k * GAMMA) & MASK for k in range(1, 6)]
    assert [mix64(s) for s in states] == ref


def test_mix64_wraps_to_64_bits():
    assert 0 <= mix64(MASK) <= MASK
    assert mix64(2**64 + 5) == mix64(5)


def test_path_seed_is_mix_of_xor():
    assert path_seed(0xDEADBEEF, 7) == mix64(0xDEADBEEF ^ 7)
    assert path_seed(0, 0) == mix64(0)


def test_path_seed_determinism_and_spread():
    seeds = [path_seed(12345, i) for i in range(100_000)]
    assert seeds == [path_seed(12345, i) for i in range(100_000)]
    assert len(set(seeds)) == 100_000
    assert all(0 <= s <= MASK for s in seeds)


def test_path_seed_differs_across_masters():
    # master XOR index can coincide pairwise (1^3 == 2^0), so only the
    # ordered sequences are guaranteed to differ
    a = [path_seed(1, i) for i in range(1000)]
    b = [path_seed(2, i) for i in range(1000)]
    assert a != b
    assert sum(x == y for x, y in zip(a, b)) <= 2


def test_path_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        path_seed(1, -1)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, MASK]


def default_rng_state(seed):
    return np.random.default_rng(seed).bit_generator.state


@pytest.mark.parametrize("master", [0, 12345, 2**40 + 3])
def test_pcg64_states_equal_default_rng_for_path_seeds(master):
    seeds = [path_seed(master, i) for i in range(4000)]
    assert pcg64_states(seeds) == [default_rng_state(s) for s in seeds]


def test_pcg64_states_equal_default_rng_at_the_word_edges():
    # one 32-bit entropy word (below 2**32) versus two
    assert pcg64_states(EDGE_SEEDS) == [default_rng_state(s) for s in EDGE_SEEDS]
    for s in EDGE_SEEDS:
        assert pcg64_states([s]) == [default_rng_state(s)]


@given(st.lists(st.integers(0, MASK), min_size=1, max_size=20))
def test_pcg64_states_equal_default_rng_for_any_seeds(seeds):
    assert pcg64_states(seeds) == [default_rng_state(s) for s in seeds]


@pytest.mark.parametrize("seed", EDGE_SEEDS + [path_seed(7, 3)])
def test_generator_set_to_a_derived_state_draws_default_rngs_stream(seed):
    gen = np.random.Generator(np.random.PCG64(0))
    gen.bit_generator.state = pcg64_states([seed])[0]
    ref = np.random.default_rng(seed)
    assert np.array_equal(gen.random(8).view(np.int64), ref.random(8).view(np.int64))
    assert np.array_equal(
        gen.standard_gamma(2.0, 8).view(np.int64), ref.standard_gamma(2.0, 8).view(np.int64)
    )


def test_pcg64_states_of_no_seeds_is_empty():
    assert pcg64_states([]) == []


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_pcg64_states_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError, match="2\\*\\*64"):
        pcg64_states([1, seed])


@pytest.mark.parametrize("name", ["_MULT_A", "_MULT_B", "_PCG64_MULT"])
def test_pcg64_states_guard_fails_loudly_when_the_recipe_drifts(monkeypatch, name):
    monkeypatch.setattr(seeding, name, getattr(seeding, name) ^ 2)
    with pytest.raises(RuntimeError, match="default_rng"):
        pcg64_states([path_seed(1, 0), path_seed(1, 1)])
