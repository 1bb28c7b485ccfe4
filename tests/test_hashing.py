import random

import numpy as np
import pytest

from conftest import find_collision_free_seed
from sketchsim import derive_row_seed, digest_pair, fnv1a64
from sketchsim import hashing
from sketchsim.hashing import FNV_OFFSET, _probe_positions, digest_rows, fnv1a64_bulk


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
    datas = [rng.randbytes(rng.randint(0, 40)) for _ in range(2000)]
    states = [FNV_OFFSET, 0, 2**64 - 1, rng.getrandbits(64)]
    bulk = fnv1a64_bulk(datas, states)
    assert bulk.shape == (len(states), len(datas))
    assert bulk.tolist() == [[fnv1a64(data, state) for data in datas] for state in states]

    elements = [data for data in datas[:300] if data]
    for depth, hash_count in ((1, 1), (1, 2), (4, 1), (3, 5), (10, 8)):
        row_seeds = [derive_row_seed(1234, row) for row in range(depth)]
        digests = digest_rows(row_seeds, hash_count, elements)
        assert len(digests) == min(hash_count, 2)
        assert all(d.shape == (depth, len(elements)) for d in digests)
        for r, seed in enumerate(row_seeds):
            pairs = [digest_pair(seed, element) for element in elements]
            assert digests[0][r].tolist() == [h1 for h1, _ in pairs]
            if hash_count > 1:
                assert digests[1][r].tolist() == [h2 for _, h2 in pairs]


def test_bulk_digests_across_blocks_and_length_groups(monkeypatch):
    # a block bound of 3 inputs splits every length group, the empty inputs' too, into several blocks
    monkeypatch.setattr(hashing, "_BLOCK_INPUTS", 3)
    rng = random.Random(3)
    mixed = [rng.randbytes(length) for length in [0, 1, 5, 18] * 10]
    rng.shuffle(mixed)
    states = [FNV_OFFSET, 0, 2**64 - 1]
    for datas in (mixed, [rng.randbytes(18) for _ in range(10)], [b""] * 7, mixed[:1]):
        assert fnv1a64_bulk(datas, states).tolist() == [[fnv1a64(data, state) for data in datas] for state in states]


@pytest.mark.parametrize("flat_lanes", [0, 2**11], ids=["array lanes", "flat lanes"])
@pytest.mark.parametrize("count", [0, 3, 4, 5, 9])
@pytest.mark.parametrize("states", [[FNV_OFFSET], [FNV_OFFSET, 0, 2**64 - 1], [FNV_OFFSET, 0, 1, 2, 2**64 - 1]],
                         ids=["one state", "several", "more than the bound"])
def test_bulk_kernel_for_one_state_and_several_around_the_block_bound(monkeypatch, states, count, flat_lanes):
    # a bound of 4 inputs puts these counts below, at, just past and twice past it. One start state
    # digests in a 1-D lane; several digest in one flat lane of (state, input) entries while there are
    # at most _FLAT_LANES of them, else in a (states, inputs) array, _BLOCK_INPUTS inputs at a time
    monkeypatch.setattr(hashing, "_BLOCK_INPUTS", 4)
    monkeypatch.setattr(hashing, "_FLAT_LANES", flat_lanes)
    rng = random.Random(count)
    single = [rng.randbytes(18) for _ in range(count)]
    mixed = [rng.randbytes(length) for length in ([1, 18] * count)[:count]]  # two length groups, one past the bound at 9
    for elements in (single, mixed):
        assert fnv1a64_bulk(elements, states).tolist() == [[fnv1a64(e, state) for e in elements] for state in states]
        for hash_count in (1, 2):  # one state per row seed, or two
            digests = digest_rows(states, hash_count, elements)  # the states serve as row seeds here
            pairs = [[digest_pair(row_seed, e) for e in elements] for row_seed in states]
            assert [d.tolist() for d in digests] == [[[pair[i] for pair in row] for row in pairs] for i in range(hash_count)]


def test_bulk_digests_of_no_elements():
    assert fnv1a64_bulk([], [FNV_OFFSET, 1]).shape == (2, 0)
    h1, h2 = digest_rows([0, 1, 2], 3, [])
    assert h1.shape == h2.shape == (3, 0)
    assert _probe_positions((h1, h2), 3, 16).shape == (3, 3, 0)


def test_h2_is_always_odd():
    rng = random.Random(5)
    for _ in range(200):
        _, h2 = digest_pair(rng.getrandbits(64), rng.randbytes(8))
        assert h2 % 2 == 1


def _positions(seed, hash_count, size, elements):
    """Every element's probe cells, one column per element, from one bulk call."""
    return _probe_positions(digest_rows([seed], hash_count, elements), hash_count, size).reshape(hash_count, -1)


def test_positions_shape_and_range():
    assert _positions(0, 1, 7, [b"e"]).shape == (1, 1)
    positions = _positions(3, 5, 13, [b"element", b"other", b"x"])
    assert positions.shape == (5, 3)
    assert positions.min() >= 0 and positions.max() < 13


def test_positions_deterministic_across_calls_and_instances():
    rng = random.Random(7)
    elements = [bytes(rng.choices(range(33, 127), k=10)) for _ in range(10_000)]
    first = _positions(42, 3, 101, elements)
    assert np.array_equal(first, _positions(42, 3, 101, list(elements)))
    # an element's cells do not depend on the elements digested with it
    order = rng.sample(range(len(elements)), len(elements))
    assert np.array_equal(first[:, order], _positions(42, 3, 101, [elements[i] for i in order]))


def test_families_with_different_seeds_disagree_somewhere():
    elements = [f"e{i}".encode() for i in range(50)]
    assert not np.array_equal(_positions(1, 2, 1 << 20, elements), _positions(2, 2, 1 << 20, elements))


def test_empirical_uniformity():
    # 10^5 random 10-char strings into 128 buckets: every bucket within
    # +/- 15% of the mean. A sanity check, not a proof of independence.
    rng = random.Random(2718)
    elements = [bytes(rng.choices(range(33, 127), k=10)) for _ in range(100_000)]
    counts = np.bincount(_positions(0, 1, 128, elements)[0], minlength=128)
    mean = 100_000 / 128
    assert counts.min() >= mean * 0.85, counts.min()
    assert counts.max() <= mean * 1.15, counts.max()


def test_validation():
    # the shape checks (seed, size, hash count) are SketchParams' own: see test_sketch_params_validation
    for seed in (-1, 2**64, 1.0):
        with pytest.raises(ValueError):
            digest_pair(seed, b"a")
        with pytest.raises(ValueError):
            digest_rows([0, seed], 2, [b"a"])
    with pytest.raises(ValueError):
        digest_pair(0, b"")
    for size, hash_count in ((0, 1), (1, 0)):
        with pytest.raises(ValueError):
            find_collision_free_seed([b"a"], size=size, hash_count=hash_count)


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
    seed = find_collision_free_seed(elements + elements[:3], size=2048, hash_count=2)  # repeats are allowed
    cells = [set(column) for column in _positions(seed, 2, 2048, elements).T.tolist()]
    assert sum(map(len, cells)) == len(set().union(*cells))  # no cell holds two elements


@pytest.mark.parametrize("count, size, hash_count",
                         [(4, 64, 1), (16, 4096, 2), (40, 1024, 1), (30, 2048, 3), (60, 2048, 2)])
def test_find_collision_free_seed_is_the_first_seed_with_disjoint_cells(count, size, hash_count):
    elements = [f"song{i}".encode() for i in range(count)]

    def disjoint(seed):  # every element's cells checked at once, no early exit
        cells = [set(column) for column in _positions(seed, hash_count, size, elements).T.tolist()]
        return sum(map(len, cells)) == len(set().union(*cells))

    assert find_collision_free_seed(elements, size, hash_count) == next(s for s in range(10_000) if disjoint(s))


def test_find_collision_free_seed_gives_up():
    # 3 distinct elements cannot fit collision-free in 2 cells
    with pytest.raises(RuntimeError):
        find_collision_free_seed([b"a", b"b", b"c"], size=2, hash_count=1, max_tries=50)
