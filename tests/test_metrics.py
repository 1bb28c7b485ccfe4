import random

import numpy as np
import pytest

from conftest import find_collision_free_seed
from sketchsim import (
    CountMinSketch,
    CountingBloomFilter,
    IncompatibleSketchError,
    Multiset,
    UndefinedSimilarityError,
    cbf_cosine,
    cbf_dice,
    check_witnesses,
    cms_cosine,
    cms_dice,
    cosine,
    dice,
    witness_of,
)


def _random_multiset(rng, pool=40, max_distinct=30, max_count=9):
    m = Multiset()
    for _ in range(rng.randint(1, max_distinct)):
        m.insert(f"e{rng.randint(0, pool)}", rng.randint(1, max_count))
    return m


def _build_pair(x, y, n, k, seed):
    return (
        CountingBloomFilter.from_multiset(x, n, hash_count=k, seed=seed),
        CountingBloomFilter.from_multiset(y, n, hash_count=k, seed=seed),
    )


class TestCbfDice:
    def test_identity(self):
        m = Multiset({"a": 3, "b": 1})
        p = CountingBloomFilter.from_multiset(m, 64, 2, seed=0)
        assert cbf_dice(p, p) == 1.0

    def test_disjoint_collision_free_is_zero(self):
        x = Multiset({"a": 2, "b": 1})
        y = Multiset({"c": 4, "d": 1})
        seed = find_collision_free_seed([b"a", b"b", b"c", b"d"], size=64, hash_count=1)
        p, q = _build_pair(x, y, 64, 1, seed)
        assert cbf_dice(p, q) == 0.0

    def test_collision_free_case_reduces_to_exact_dice(self):
        x = Multiset({"a": 2, "b": 1})
        y = Multiset({"a": 1, "c": 1})
        seed = find_collision_free_seed([b"a", b"b", b"c"], size=128, hash_count=1)
        p, q = _build_pair(x, y, 128, 1, seed)
        assert cbf_dice(p, q) == 0.4
        assert cbf_dice(p, q) == dice(x, y)

    def test_both_zero_is_error(self):
        p = CountingBloomFilter(16, 1, seed=0)
        q = CountingBloomFilter(16, 1, seed=0)
        with pytest.raises(UndefinedSimilarityError):
            cbf_dice(p, q)

    def test_incompatible_lengths(self):
        m = Multiset({"a": 1})
        p = CountingBloomFilter.from_multiset(m, 64, 1, seed=0)
        q = CountingBloomFilter.from_multiset(m, 128, 1, seed=0)
        with pytest.raises(IncompatibleSketchError) as info:
            cbf_dice(p, q)
        assert "width" in info.value.mismatched_fields

    def test_incompatible_seeds_and_hash_counts(self):
        m = Multiset({"a": 1})
        p = CountingBloomFilter.from_multiset(m, 64, 1, seed=0)
        with pytest.raises(IncompatibleSketchError) as info:
            cbf_dice(p, CountingBloomFilter.from_multiset(m, 64, 1, seed=1))
        assert info.value.mismatched_fields == ["seed"]
        with pytest.raises(IncompatibleSketchError) as info:
            cbf_dice(p, CountingBloomFilter.from_multiset(m, 64, 2, seed=0))
        assert info.value.mismatched_fields == ["hash_count"]


class TestCmsDice:
    def test_depth_one_equals_cbf_dice(self):
        rng = random.Random(17)
        for _ in range(50):
            x, y = _random_multiset(rng), _random_multiset(rng)
            seed = rng.randint(0, 99)
            n = rng.choice([32, 64, 400])
            p, q = _build_pair(x, y, n, 1, seed)
            r = CountMinSketch.from_multiset(x, n, 1, seed=seed)
            s = CountMinSketch.from_multiset(y, n, 1, seed=seed)
            assert cms_dice(r, s) == cbf_dice(p, q)

    def test_identity(self):
        r = CountMinSketch.from_multiset(Multiset({"a": 5, "b": 2}), 32, 4, seed=1)
        assert cms_dice(r, r) == 1.0

    def test_average_over_rows(self):
        # hand-set tables so each row has a known Dice value
        r = CountMinSketch(4, 2, seed=0)
        s = CountMinSketch(4, 2, seed=0)
        r.table = np.array([[2, 0, 0, 0], [1, 1, 0, 0]], dtype=np.uint32)
        s.table = np.array([[0, 2, 0, 0], [1, 1, 0, 0]], dtype=np.uint32)
        # row 0: min-sum 0 -> 0.0; row 1: 2*2/4 -> 1.0
        assert cms_dice(r, s) == 0.5

    def test_empty_row_pair_is_error(self):
        r = CountMinSketch(4, 2, seed=0)
        s = CountMinSketch(4, 2, seed=0)
        r.table = np.array([[1, 0, 0, 0], [0, 0, 0, 0]], dtype=np.uint32)
        s.table = np.array([[1, 0, 0, 0], [0, 0, 0, 0]], dtype=np.uint32)
        with pytest.raises(UndefinedSimilarityError):
            cms_dice(r, s)

    def test_kind_mismatch_is_incompatible(self):
        m = Multiset({"a": 1})
        p = CountingBloomFilter.from_multiset(m, 16, 1, seed=0)
        r = CountMinSketch.from_multiset(m, 16, 1, seed=0)
        with pytest.raises(TypeError):
            cms_dice(r, p)
        with pytest.raises(IncompatibleSketchError) as info:
            check_witnesses(witness_of(r), witness_of(p))
        assert "kind" in info.value.mismatched_fields


class TestCosine:
    def test_identity(self):
        p = CountingBloomFilter.from_multiset(Multiset({"a": 3, "b": 4}), 64, 1, seed=0)
        assert cbf_cosine(p, p) == 1.0
        r = CountMinSketch.from_multiset(Multiset({"a": 3, "b": 4}), 64, 3, seed=0)
        assert cms_cosine(r, r) == 1.0

    def test_disjoint_collision_free_is_zero(self):
        x = Multiset({"a": 1})
        y = Multiset({"b": 2})
        seed = find_collision_free_seed([b"a", b"b"], size=32, hash_count=2)
        p, q = _build_pair(x, y, 32, 2, seed)
        assert cbf_cosine(p, q) == 0.0

    def test_collision_free_matches_oracle(self):
        x = Multiset({"a": 2, "b": 1})
        y = Multiset({"a": 1, "c": 3})
        seed = find_collision_free_seed([b"a", b"b", b"c"], size=256, hash_count=1)
        p, q = _build_pair(x, y, 256, 1, seed)
        assert cbf_cosine(p, q) == pytest.approx(cosine(x, y), abs=1e-15)

    def test_zero_norm_is_error(self):
        p = CountingBloomFilter.from_multiset(Multiset({"a": 1}), 16, 1, seed=0)
        q = CountingBloomFilter(16, 1, seed=0)
        with pytest.raises(UndefinedSimilarityError):
            cbf_cosine(p, q)

    def test_depth_one_equals_cbf_cosine(self):
        x = Multiset({"a": 4, "b": 2, "c": 1})
        y = Multiset({"a": 1, "d": 5})
        p, q = _build_pair(x, y, 64, 1, seed=3)
        r = CountMinSketch.from_multiset(x, 64, 1, seed=3)
        s = CountMinSketch.from_multiset(y, 64, 1, seed=3)
        assert cms_cosine(r, s) == cbf_cosine(p, q)

    def test_average_over_rows(self):
        r = CountMinSketch(4, 2, seed=0)
        s = CountMinSketch(4, 2, seed=0)
        r.table = np.array([[1, 0, 0, 0], [1, 0, 0, 0]], dtype=np.uint32)
        s.table = np.array([[0, 1, 0, 0], [1, 0, 0, 0]], dtype=np.uint32)
        assert cms_cosine(r, s) == 0.5


class TestOverestimation:
    def test_dice_never_underestimates(self):
        # the one-sided error property, over randomized pairs including
        # tiny tables (dense collisions) and lopsided sizes
        rng = random.Random(1009)
        for trial in range(1000):
            x = _random_multiset(rng, max_distinct=40)
            y = _random_multiset(rng, max_distinct=5 if trial % 7 == 0 else 40)
            truth = dice(x, y)
            n = rng.choice([4, 16, 64, 256])
            k = rng.choice([1, 2, 4])
            seed = rng.randint(0, 99)
            p, q = _build_pair(x, y, n, k, seed)
            assert cbf_dice(p, q) >= truth - 1e-12
            depth = rng.choice([1, 3])
            r = CountMinSketch.from_multiset(x, n, depth, seed=seed)
            s = CountMinSketch.from_multiset(y, n, depth, seed=seed)
            assert cms_dice(r, s) >= truth - 1e-12

    def test_cms_row_mean_never_rounds_below_exact(self):
        # every row scores 4/11, but fsum(rows) / 3 rounds one step below it
        x = Multiset({b"\x00": 1, b"\x01": 1})
        y = Multiset({b"\x00": 1, b"\x01": 1, b"\x02": 7})
        r, s = (CountMinSketch.from_multiset(m, 1, 3, seed=0) for m in (x, y))
        assert dice(x, y) == 0.36363636363636365
        assert cms_dice(r, s) >= 0.36363636363636365

    def test_cosine_can_undershoot(self):
        # no one-sided guarantee for cosine: a collision can add more to the norms than to the dot product
        x = Multiset({b"\x03": 9})
        y = Multiset({b"\x03": 7, b"\x05": 6, b"\x07": 5, b"\x00": 7, b"\x02": 9})
        p, q = _build_pair(x, y, 5, 1, seed=13)
        assert cbf_cosine(p, q) == pytest.approx(0.366, abs=1e-3)
        assert cosine(x, y) == pytest.approx(0.452, abs=1e-3)

    def test_symmetry(self):
        rng = random.Random(44)
        for _ in range(100):
            x, y = _random_multiset(rng), _random_multiset(rng)
            p, q = _build_pair(x, y, 32, 2, seed=7)
            assert cbf_dice(p, q) == cbf_dice(q, p)
            assert cbf_cosine(p, q) == cbf_cosine(q, p)
            r = CountMinSketch.from_multiset(x, 32, 2, seed=7)
            s = CountMinSketch.from_multiset(y, 32, 2, seed=7)
            assert cms_dice(r, s) == cms_dice(s, r)
            assert cms_cosine(r, s) == cms_cosine(s, r)


class TestConvergence:
    def test_mean_error_shrinks_as_length_doubles(self):
        rng = random.Random(321)
        pairs = []
        for _ in range(60):
            x = _random_multiset(rng, pool=300, max_distinct=40)
            y = _random_multiset(rng, pool=300, max_distinct=40)
            pairs.append((x, y, dice(x, y)))
        means = []
        for n in (64, 128, 256, 512, 1024):
            errors = []
            for x, y, truth in pairs:
                p, q = _build_pair(x, y, n, 1, seed=5)
                errors.append(abs(cbf_dice(p, q) - truth))
            means.append(sum(errors) / len(errors))
        inversions = sum(1 for a, b in zip(means, means[1:]) if b > a)
        assert inversions <= 1, means


class TestExactnessWithCollisionFreeSeed:
    def test_cbf_dice_equals_oracle(self):
        rng = random.Random(91)
        pool = [rng.randbytes(8) for _ in range(16)]
        seed = find_collision_free_seed(pool, size=4096, hash_count=2)
        for _ in range(100):
            x, y = Multiset(), Multiset()
            for element in pool:
                if rng.random() < 0.7:
                    x.insert(element, rng.randint(1, 9))
                if rng.random() < 0.7:
                    y.insert(element, rng.randint(1, 9))
            if x.cardinality() == 0 or y.cardinality() == 0:
                continue
            p, q = _build_pair(x, y, 4096, 2, seed)
            assert abs(cbf_dice(p, q) - dice(x, y)) <= 1e-12
