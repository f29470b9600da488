"""Stream derivation: reproducibility and independence of labeled sources."""
import numpy as np

from subadapt.rng import RandomSource, derive_sequence


def test_same_seed_and_labels_replay_the_stream():
    a = RandomSource(42, "noise").uniform(100)
    b = RandomSource(42, "noise").uniform(100)
    assert np.array_equal(a, b)


def test_different_labels_give_different_streams():
    a = RandomSource(42, "noise").uniform(100)
    b = RandomSource(42, "shuffle").uniform(100)
    c = RandomSource(43, "noise").uniform(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_string_labels_hash_stably():
    # crc32-based keys must not depend on interpreter hash randomization
    seq = derive_sequence(7, "generator", 3)
    assert seq.spawn_key == (zlib_crc("generator"), 3)


def zlib_crc(text):
    import zlib
    return zlib.crc32(text.encode("utf-8"))


def test_permutation_covers_range():
    perm = RandomSource(0, "epoch", 5).permutation(50)
    assert sorted(perm.tolist()) == list(range(50))


def test_uniform_range_and_normal_moments():
    src = RandomSource(1, "check")
    u = src.uniform(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    z = RandomSource(1, "gauss").normal(100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
