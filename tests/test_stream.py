import numpy as np

from hraidlab import cell_seed
from hraidlab.stream import (
    _mix64_array,
    trial_keys,
    uniforms_at,
)

from scalar_reference import TrialStream, mix64, trial_key, uniform_at

GOLDEN = 0x9E3779B97F4A7C15


def test_mix64_reference_sequence():
    # the well-known outputs of the SplitMix64 generator seeded with 0
    assert mix64(1 * GOLDEN & (2**64 - 1)) == 0xE220A8397B1DCDAF
    assert mix64(2 * GOLDEN & (2**64 - 1)) == 0x6E789E6AA1B965F4
    assert mix64(3 * GOLDEN & (2**64 - 1)) == 0x06C45D188009454F


def test_mix64_is_64_bit():
    for z in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
        out = mix64(z)
        assert 0 <= out < 2**64


def test_mix64_array_leaves_its_input_unchanged():
    words = np.arange(5, dtype=np.uint64)
    assert int(_mix64_array(words)[1]) == mix64(1)
    assert words.tolist() == [0, 1, 2, 3, 4]


def test_trial_keys_match_scalar():
    keys = trial_keys(seed=987, start=13, count=40)
    for i in range(40):
        assert int(keys[i]) == trial_key(987, 13 + i)


def test_trial_keys_match_scalar_across_seeds_and_starts():
    # the array mixer computes the seed's own mix on a one-element array;
    # the seeds run past 2**63 and up to 2**64 - 1, where a signed or
    # truncated word would differ
    seeds = [0, 1, 2**63 - 1, 2**63, 2**64 - 1] + [
        (i * 0x9E3779B97F4A7C15 + 12345) % 2**64 for i in range(52)
    ]
    for seed in seeds:
        for start in (0, 4096, 196611):
            keys = trial_keys(seed, start, 3)
            assert [int(k) for k in keys] == [trial_key(seed, start + i) for i in range(3)]


def test_cell_seed_is_the_stream_key_of_its_cell():
    for seed in (0, 6, 2**64 - 1):
        seeds = {cell_seed(seed, k, ell) for k in range(4) for ell in range(4)}
        assert len(seeds) == 16
        for k in range(4):
            for ell in range(4):
                assert cell_seed(seed, k, ell) == trial_key(seed, (k << 16) | ell)
                assert type(cell_seed(seed, k, ell)) is int


def test_uniforms_match_scalar_and_range():
    keys = trial_keys(seed=5, start=0, count=64)
    for counter in (1, 2, 17, 1000):
        block = uniforms_at(keys, counter)
        assert block.dtype == np.float64
        assert np.all(block >= 0.0) and np.all(block < 1.0)
        for i in range(64):
            assert block[i] == uniform_at(int(keys[i]), counter)


def test_trial_stream_walks_counters():
    st = TrialStream(seed=11, index=3)
    key = trial_key(11, 3)
    assert [st.next_uniform() for _ in range(5)] == [
        uniform_at(key, c) for c in range(1, 6)
    ]


def test_streams_differ_by_trial_and_seed():
    a = [TrialStream(1, 0).next_uniform() for _ in range(1)]
    b = [TrialStream(1, 1).next_uniform() for _ in range(1)]
    c = [TrialStream(2, 0).next_uniform() for _ in range(1)]
    assert a != b and a != c and b != c


def test_uniform_distribution_sanity():
    keys = trial_keys(seed=0, start=0, count=20_000)
    u = uniforms_at(keys, 1)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(np.mean(u < 0.25) - 0.25) < 0.01
