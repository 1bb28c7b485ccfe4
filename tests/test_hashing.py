import random

import numpy as np
import pytest

from sketchsim import HashFamily, derive_row_seed, digest_pair, find_collision_free_seed, fnv1a64
from sketchsim.hashing import digest1_bulk, digest_pairs_bulk, fnv1a64_bulk


# Published FNV-1a 64-bit vectors (reference test suite of the FNV spec).
FNV_VECTORS = {
    b"": 0xCBF29CE484222325,
    b"a": 0xAF63DC4C8601EC8C,
    b"b": 0xAF63DF4C8601F1A5,
    b"foobar": 0x85944171F73967E8,
}


def test_fnv1a64_reference_vectors():
    for data, expected in FNV_VECTORS.items():
        assert fnv1a64(data) == expected


def test_bulk_digests_match_scalar():
    rng = random.Random(99)
    datas = [rng.randbytes(rng.randint(1, 40)) for _ in range(2000)]
    bulk = fnv1a64_bulk(datas)
    assert all(int(b) == fnv1a64(d) for b, d in zip(bulk, datas))

    h1, h2 = digest_pairs_bulk(1234, datas)
    for i, data in enumerate(datas):
        s1, s2 = digest_pair(1234, data)
        assert (int(h1[i]), int(h2[i])) == (s1, s2)
    assert np.array_equal(digest1_bulk(1234, datas), h1)


def test_h2_is_always_odd():
    rng = random.Random(5)
    for _ in range(200):
        _, h2 = digest_pair(rng.getrandbits(64), rng.randbytes(8))
        assert h2 % 2 == 1


def test_positions_shape_and_range():
    family = HashFamily(seed=0, hash_count=1, size=7)
    assert len(family.positions(b"e")) == 1
    family = HashFamily(seed=3, hash_count=5, size=13)
    positions = family.positions("element")
    assert len(positions) == 5
    assert all(0 <= p < 13 for p in positions)


def test_positions_deterministic_across_calls_and_instances():
    a = HashFamily(seed=42, hash_count=3, size=101)
    b = HashFamily(seed=42, hash_count=3, size=101)
    rng = random.Random(7)
    for _ in range(10_000):
        element = bytes(rng.choices(range(33, 127), k=10))
        first = a.positions(element)
        assert first == a.positions(element)
        assert first == b.positions(element)


def test_families_with_different_seeds_disagree_somewhere():
    a = HashFamily(seed=1, hash_count=2, size=1 << 20)
    b = HashFamily(seed=2, hash_count=2, size=1 << 20)
    assert any(a.positions(f"e{i}") != b.positions(f"e{i}") for i in range(50))


def test_empirical_uniformity():
    # 10^5 random 10-char strings into 128 buckets: every bucket within
    # +/- 15% of the mean. A sanity check, not a proof of independence.
    family = HashFamily(seed=0, hash_count=1, size=128)
    rng = random.Random(2718)
    counts = np.zeros(128, dtype=int)
    for _ in range(100_000):
        element = bytes(rng.choices(range(33, 127), k=10))
        counts[family.positions(element)[0]] += 1
    mean = 100_000 / 128
    assert counts.min() >= mean * 0.85, counts.min()
    assert counts.max() <= mean * 1.15, counts.max()


def test_validation():
    with pytest.raises(ValueError):
        HashFamily(seed=-1)
    with pytest.raises(ValueError):
        HashFamily(seed=2**64)
    with pytest.raises(ValueError):
        HashFamily(hash_count=0)
    with pytest.raises(ValueError):
        HashFamily(size=0)
    with pytest.raises(ValueError):
        digest_pair(0, b"")


def test_row_seed_derivation():
    assert derive_row_seed(99, 0) == 99
    seeds = {derive_row_seed(99, row) for row in range(10)}
    assert len(seeds) == 10
    assert derive_row_seed(99, 3) == derive_row_seed(99, 3)
    assert derive_row_seed(98, 3) != derive_row_seed(99, 3)


def test_row_seed_cache_keeps_validation():
    # row seeds are memoised; a cache keyed by (1, 3) must not answer for 1.0 == 1
    derive_row_seed(1, 3)
    with pytest.raises(ValueError):
        derive_row_seed(1.0, 3)
    with pytest.raises(ValueError):
        derive_row_seed(1, 3.0)


def test_find_collision_free_seed():
    elements = [f"item{i}".encode() for i in range(16)]
    seed = find_collision_free_seed(elements, size=2048, hash_count=2)
    family = HashFamily(seed=seed, hash_count=2, size=2048)
    owner = {}
    for element in elements:
        for position in set(family.positions(element)):
            assert owner.setdefault(position, element) == element


def test_find_collision_free_seed_gives_up():
    # 3 distinct elements cannot fit collision-free in 2 cells
    with pytest.raises(RuntimeError):
        find_collision_free_seed([b"a", b"b", b"c"], size=2, hash_count=1, max_tries=50)
