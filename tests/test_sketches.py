import random
from itertools import combinations

import numpy as np
import pytest

from conftest import sequential_table
from sketchsim import (
    COUNTER_MAX,
    BloomFilter,
    CountMinSketch,
    CountingBloomFilter,
    GridSpec,
    Multiset,
    SketchParams,
    derive_row_seed,
    digest_pair,
    encode,
)
from sketchsim import sketches
from sketchsim.experiments import _Columns
from sketchsim.hashing import _digests, _probe_positions, _start_states


def _random_multiset(rng, max_distinct=40, max_count=9):
    m = Multiset()
    for _ in range(rng.randint(1, max_distinct)):
        m.insert(rng.randbytes(rng.randint(1, 12)), rng.randint(1, max_count))
    return m


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter(64, hash_count=3, seed=1)
        items = [f"x{i}" for i in range(20)]
        for item in items:
            bf.insert(item)
        assert all(item in bf for item in items)

    def test_empty_filter_contains_nothing(self):
        bf = BloomFilter(256, hash_count=2)
        assert not any(f"y{i}" in bf for i in range(100))

    def test_at_most_k_bits_per_insert(self):
        bf = BloomFilter(7, hash_count=2, seed=0)
        bf.insert("e1")
        assert int(bf.bits.sum()) <= 2

    def test_false_positive_rate_near_standard_estimate(self):
        # n=1024, k=2, 100 inserts: (1 - e^{-200/1024})^2 ~= 3.2%; demand < 5%
        bf = BloomFilter.from_multiset(
            Multiset({f"member{i}": 1 for i in range(100)}), 1024, hash_count=2, seed=9
        )
        rng = random.Random(31)
        probes = 10_000
        hits = sum(1 for _ in range(probes) if bf.contains(rng.randbytes(12)))
        assert hits / probes < 0.05, hits / probes

    def test_from_multiset_matches_inserts(self):
        rng = random.Random(8)
        m = _random_multiset(rng)
        built = BloomFilter.from_multiset(m, 128, hash_count=2, seed=4)
        manual = BloomFilter(128, hash_count=2, seed=4)
        for element, _ in m.items():
            manual.insert(element)
        assert built == manual


class TestCountingBloomFilter:
    def test_single_insert_lands_one_counter(self):
        cbf = CountingBloomFilter(32, hash_count=1, seed=0)
        cbf.insert("a", 3)
        assert sorted(cbf.counters.tolist(), reverse=True)[:2] == [3, 0]

    def test_counter_sum_is_k_times_cardinality(self):
        rng = random.Random(77)
        for _ in range(1000):
            m = _random_multiset(rng, max_distinct=15)
            k = rng.randint(1, 4)
            cbf = CountingBloomFilter.from_multiset(m, rng.randint(4, 64), hash_count=k, seed=rng.randint(0, 99))
            assert int(cbf.counters.sum(dtype=np.uint64)) == k * m.cardinality()

    def test_insert_zero_times_rejected(self):
        cbf = CountingBloomFilter(16)
        with pytest.raises(ValueError):
            cbf.insert("a", 0)
        with pytest.raises(OverflowError):  # an insert takes the counts a Multiset takes
            cbf.insert("a", 2**64)
        assert not cbf.counters.any()

    def test_estimate_zero_for_fresh(self):
        assert CountingBloomFilter(64, hash_count=2).estimate_count("never") == 0

    def test_estimate_upper_bounds_true_count(self):
        rng = random.Random(13)
        for _ in range(200):
            m = _random_multiset(rng, max_distinct=30)
            cbf = CountingBloomFilter.from_multiset(m, 64, hash_count=rng.randint(1, 3), seed=rng.randint(0, 9))
            for element, count in m.items():
                assert cbf.estimate_count(element) >= count

    def test_forced_collision_adds_counts(self):
        # search a pair of elements sharing their single cell in a 4-cell table
        rng = random.Random(0)
        elements = [rng.randbytes(6) for _ in range(5)]  # 5 distinct elements in 4 cells: two share one
        cells = _probe_positions(_digests(_start_states([0], 1), 1, elements), 1, 4).ravel().tolist()
        a, b = next((x, y) for (x, p), (y, q) in combinations(zip(elements, cells), 2) if p == q)
        cbf = CountingBloomFilter(4, hash_count=1, seed=0)
        cbf.insert(a, 2)
        cbf.insert(b, 3)
        assert cbf.estimate_count(a) == 5

    def test_saturation_clamps_and_flags(self):
        # saturated means a cell sits at COUNTER_MAX, whether it got there exactly or by the clamp
        cbf = CountingBloomFilter(8, hash_count=1, seed=0)
        cbf.insert("hot", COUNTER_MAX - 1)
        assert not cbf.saturated
        cbf.insert("hot")
        assert cbf.saturated and cbf.estimate_count("hot") == COUNTER_MAX
        cbf.insert("hot", 2)
        assert cbf.saturated
        assert cbf.estimate_count("hot") == COUNTER_MAX

    def test_order_independence(self):
        rng = random.Random(5)
        m = _random_multiset(rng, max_distinct=25)
        built = CountingBloomFilter.from_multiset(m, 64, hash_count=2, seed=3)
        forward = CountingBloomFilter(64, hash_count=2, seed=3)
        for element, count in sorted(m.items()):
            forward.insert(element, count)
        backward = CountingBloomFilter(64, hash_count=2, seed=3)
        for element, count in sorted(m.items(), reverse=True):
            backward.insert(element, count)
        assert built == forward == backward

    def test_build_empty_is_all_zero(self):
        cbf = CountingBloomFilter.from_multiset(Multiset(), 32, hash_count=2, seed=1)
        assert not cbf.counters.any()

    def test_counting_check_64_distinct(self):
        m = Multiset({f"e{i:02d}": 1 for i in range(64)})
        cbf = CountingBloomFilter.from_multiset(m, 128, hash_count=1, seed=0)
        assert int(cbf.counters.sum()) == 64


class TestCountMinSketch:
    def test_fresh_estimates_zero(self):
        cms = CountMinSketch(32, 4, seed=0)
        assert cms.estimate_count("anything") == 0

    def test_estimate_upper_bounds_true_count(self):
        rng = random.Random(3)
        for _ in range(200):
            m = _random_multiset(rng, max_distinct=30)
            cms = CountMinSketch.from_multiset(m, 64, rng.randint(1, 4), seed=rng.randint(0, 9))
            for element, count in m.items():
                assert cms.estimate_count(element) >= count

    def test_row_sums_equal_absent_saturation(self):
        rng = random.Random(21)
        for _ in range(100):
            m = _random_multiset(rng)
            cms = CountMinSketch.from_multiset(m, 32, 5, seed=rng.randint(0, 9))
            sums = cms.table.sum(axis=1, dtype=np.uint64)
            assert (sums == m.cardinality()).all()

    def test_depth_one_cms_equals_one_hash_cbf(self):
        rng = random.Random(4)
        for _ in range(50):
            m = _random_multiset(rng)
            seed = rng.randint(0, 999)
            n = rng.choice([16, 64, 128, 400])
            cbf = CountingBloomFilter.from_multiset(m, n, hash_count=1, seed=seed)
            cms = CountMinSketch.from_multiset(m, n, 1, seed=seed)
            assert np.array_equal(cbf.counters, cms.table[0])
            for element, _ in m.items():
                assert cbf.estimate_count(element) == cms.estimate_count(element)

    def test_insert_matches_bulk_build(self):
        rng = random.Random(6)
        m = _random_multiset(rng)
        bulk = CountMinSketch.from_multiset(m, 64, 3, seed=2)
        manual = CountMinSketch(64, 3, seed=2)
        for element, count in m.items():
            manual.insert(element, count)
        assert bulk == manual


def test_validation():
    with pytest.raises(ValueError):
        CountMinSketch(0, 1)
    with pytest.raises(ValueError):
        CountMinSketch(1, 0)
    with pytest.raises(ValueError):
        BloomFilter(0)
    with pytest.raises(ValueError):
        CountingBloomFilter(4, hash_count=0)
    # each of these equals a valid shape memoised just before it, or cannot be a memo key, and is refused on every call
    CountingBloomFilter(128, 1), CountMinSketch(128, 4), CountingBloomFilter(128, 1, 2**64 - 1)
    for build in (lambda: CountingBloomFilter(128, True), lambda: CountingBloomFilter(128.0),
                  lambda: CountMinSketch(np.int64(128), 4), lambda: CountingBloomFilter(128, 1, -1),
                  lambda: CountingBloomFilter(128, 1, 2**64), lambda: CountingBloomFilter([128]),
                  lambda: CountMinSketch(np.array(128), 4), lambda: CountingBloomFilter(128, 1, [0]),
                  lambda: CountingBloomFilter(128, 1, True), lambda: CountingBloomFilter(128, 1, False),
                  lambda: CountMinSketch(128, 4, True), lambda: SketchParams("cbf", 128, seed=True)):
        for _ in range(2):
            with pytest.raises(ValueError):
                build()
    bound = sketches._shape_memo.cache_info().maxsize
    for seed in range(bound + 10):
        assert CountingBloomFilter(2, 1, seed).seed == seed
    assert sketches._shape_memo.cache_info().currsize <= bound


def test_sketch_params_fit_the_header():
    # width, depth and hash count travel as uint32 header fields; checking a shape builds no table
    assert SketchParams("cms", 2**32 - 1, depth=2**32 - 1).width == 2**32 - 1
    assert SketchParams("cbf", 2**32 - 1, hash_count=2**32 - 1).hash_count == 2**32 - 1
    for kind, fields in [("cms", {"width": 2**40}), ("cms", {"depth": 2**32}), ("cbf", {"hash_count": 2**32})]:
        with pytest.raises(ValueError):
            SketchParams(kind, **{"width": 8, **fields})
    with pytest.raises(ValueError):  # not struct.error from the header packing
        encode(CountingBloomFilter(8, 2**32))


@pytest.mark.parametrize("count", [COUNTER_MAX, COUNTER_MAX + 1, 2**62, 2**63, 2**64 - 1])
@pytest.mark.parametrize("length", [1, 8])
@pytest.mark.parametrize("kind, depth", [("cbf", 1), ("cbf", 2), ("cbf", 3), ("cms", 1), ("cms", 2)])
def test_bulk_build_saturation_matches_incremental(kind, depth, length, count):
    # depth is k for a CBF and d for a CMS; every build path must clamp like insert
    m = Multiset({"hot": count, "hot2": 5})
    if kind == "cbf":
        bulk = CountingBloomFilter.from_multiset(m, length, hash_count=depth)
        manual = CountingBloomFilter(length, hash_count=depth)
    else:
        bulk = CountMinSketch.from_multiset(m, length, depth)
        manual = CountMinSketch(length, depth)
    for element, times in m.items():
        manual.insert(element, times)
    reference = sequential_table(bulk.params, m)  # Python ints, one probe at a time: no shared code path
    assert manual.saturated  # every count here is at or past COUNTER_MAX
    rows = [table[0].copy() for table in _Columns([("p", m, m)], GridSpec(kind, [length], [depth]))._rows(length)]
    rows = np.array(rows if kind == "cms" else rows[-1:])  # a CBF row is yielded after each of its probes
    assert np.array_equal(rows, reference)  # the grid engine's rows of a one-profile corpus
    assert np.array_equal(bulk.table, reference)
    assert bulk == manual
    assert bulk.saturated == manual.saturated


@pytest.mark.parametrize("kind, probes", [("cbf", 1), ("cbf", 3), ("cms", 1), ("cms", 4)])
def test_from_multiset_of_one_id_length_matches_inserts(kind, probes):
    # sender song ids are all 18 bytes, so the bulk digest takes them as one byte block
    rng = random.Random(18)
    m = Multiset({f"SO{rng.getrandbits(64):016X}": rng.randint(1, 40) for _ in range(96)})
    assert {len(element) for element in m.elements()} == {18}
    sketch_type = CountingBloomFilter if kind == "cbf" else CountMinSketch
    manual = sketch_type(128, probes, 0)
    for element, count in m.items():
        manual.insert(element, count)
    assert sketch_type.from_multiset(m, 128, probes, 0) == manual


@pytest.mark.parametrize("params", [SketchParams("cbf", 128, hash_count=k, seed=9) for k in (1, 2, 3)]
                         + [SketchParams("cms", 128, depth=d, seed=9) for d in (1, 4)],
                         ids=lambda params: f"{params.kind}-k{params.hash_count}-d{params.depth}")
def test_plan_start_states_digest_as_digest_pair(params):
    # the sender's builds and the grid both digest from the start states a shape's plan keeps
    elements = [f"e{i}".encode() for i in range(40)] + [b"SO" + bytes(16)]
    digests = _digests(params._plan[0], params.hash_count, elements)
    pairs = [[digest_pair(derive_row_seed(params.seed, row), e) for e in elements] for row in range(params.depth)]
    assert len(digests) == min(params.hash_count, 2)
    for i, digest in enumerate(digests):
        assert digest.tolist() == [[pair[i] for pair in row] for row in pairs]
