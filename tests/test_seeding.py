import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab import seeding
from driftlab.experiments import RecurrenceExperiment, estimate_occupancy
from driftlab.fields import Constant1, MeanReverting, RateField
from driftlab.seeding import mix64, path_seed, path_seeds, pcg64_states, stream_b_states
from driftlab.simulator import (
    martingale_check,
    simulate_compound_poisson,
    simulate_walk,
    wald_second_moment_check,
)

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
    # since draw contract 3 the master is mixed before the index is folded in
    assert path_seed(0xDEADBEEF, 7) == mix64(mix64(0xDEADBEEF) ^ 7)
    assert path_seed(0, 0) == mix64(mix64(0))


def test_masters_differing_in_low_bits_give_disjoint_ensembles():
    # contract 2's mix64(m ^ i) gave masters 1 and 7 one 400-path ensemble
    sets = [{path_seed(m, i) for i in range(400)} for m in (0, 1, 7)]
    assert all(len(s) == 400 for s in sets)
    assert not sets[0] & sets[1] and not sets[0] & sets[2] and not sets[1] & sets[2]


@pytest.mark.parametrize("master", [0, 1, 7, 2**40 + 3, MASK])
def test_path_seeds_equal_path_seed_for_each_index(master):
    for start, stop in ((0, 0), (0, 1), (0, 1000), (513, 2000), (2**63, 2**63 + 5)):
        seeds = path_seeds(master, start, stop)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [path_seed(master, i) for i in range(start, stop)]
    with pytest.raises(ValueError):
        path_seeds(master, -1, 3)


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


def advanced_state(seed):
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(1 << 96)
    return rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_stream_b_is_default_rng_advanced_2_to_the_96(seed):
    assert list(stream_b_states(pcg64_states([seed]))) == [advanced_state(seed)]


def test_stream_b_states_over_a_span_of_path_seeds():
    seeds = path_seeds(2**40 + 3, 0, 600).tolist()
    assert list(stream_b_states(pcg64_states(seeds))) == [advanced_state(s) for s in seeds]


def test_stream_b_states_of_no_states_is_empty():
    assert list(stream_b_states([])) == []


@pytest.mark.parametrize("name", ["_JUMP_MULT", "_JUMP_ADD"])
def test_stream_b_guard_fails_loudly_on_a_wrong_jump_constant(monkeypatch, name):
    monkeypatch.setattr(seeding, name, getattr(seeding, name) ^ 2)
    with pytest.raises(RuntimeError, match="advance"):
        list(stream_b_states(pcg64_states([path_seed(1, 0), path_seed(1, 1)])))


_MR = RateField(MeanReverting(kappa=0.2))
_UNIT = Constant1()
SEEDED_ENTRY_POINTS = {
    "RecurrenceExperiment": lambda s: RecurrenceExperiment(_MR, _UNIT, _UNIT, 5, 10.0, 3.0, 1.0, s),
    "simulate_walk": lambda s: simulate_walk(_MR, _UNIT, _UNIT, 10.0, s),
    "simulate_compound_poisson": lambda s: simulate_compound_poisson(lambda t: 1.0, 1.0, _UNIT, 10.0, s),
    "estimate_occupancy": lambda s: estimate_occupancy(_MR, _UNIT, _UNIT, 10.0, (-3, 3), s),
    "wald_second_moment_check": lambda s: wald_second_moment_check(_MR, _UNIT, _UNIT, 1.0, 100, s),
    "martingale_check": lambda s: martingale_check(1.0, _UNIT, 1.0, 2.0, 100, s),
}


@pytest.mark.parametrize("entry", SEEDED_ENTRY_POINTS)
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_api_entry_points_reject_seeds_outside_64_bits(entry, seed):
    # -1 used to run as 2**64 - 1 through path_seed's mask, or fail in
    # numpy without naming the seed
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        SEEDED_ENTRY_POINTS[entry](seed)


@pytest.mark.parametrize("entry", SEEDED_ENTRY_POINTS)
def test_api_entry_points_accept_the_64_bit_seed_edges(entry):
    for seed in (0, 2**64 - 1):
        SEEDED_ENTRY_POINTS[entry](seed)
