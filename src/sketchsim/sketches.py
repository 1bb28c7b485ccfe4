"""Bloom Filter, Counting Bloom Filter and Count-Min Sketch.

All three structures share the seeded hash family from `hashing`. The
counting structures use 32-bit saturating cells: a cell that would
overflow sticks at the maximum and raises the sketch's `saturated` flag
instead of erroring, so one hot cell cannot abort a profile exchange.

The two counting structures are related: summing the rows of a
Count-Min sketch column-wise yields a Counting Bloom Filter, and a
one-row Count-Min sketch is cell-for-cell identical to a one-hash CBF
built with the same seed (see `hashing.derive_row_seed`).
"""

from __future__ import annotations

import numpy as np

from .hashing import (
    HashFamily,
    derive_row_seed,
    digest1_bulk,
    digest_pairs_bulk,
)
from .multiset import Multiset, as_element

COUNTER_MAX = 2**32 - 1


def _check_times(times: int) -> int:
    if not isinstance(times, int) or times < 1:
        raise ValueError(f"times must be a positive integer, got {times!r}")
    return times


def _multiset_arrays(multiset: Multiset) -> tuple[list[bytes], np.ndarray]:
    """A multiset's elements and their int64 counts, each clipped to COUNTER_MAX + 1.

    The clip keeps the int64 accumulators exact (a cell sums at most
    distinct * hash_count clipped counts) while a cell holding a clipped
    count still exceeds COUNTER_MAX, so it saturates to the value
    sequential inserts give. This is the only Multiset -> array step of
    every sketch build.
    """
    elements = list(multiset.elements())
    counts = np.asarray([count for _, count in multiset.items()], dtype=np.uint64)
    return elements, np.minimum(counts, COUNTER_MAX + 1).astype(np.int64)


def _clip_saturating(accumulated: np.ndarray) -> tuple[np.ndarray, bool]:
    saturated = bool(accumulated.max(initial=0) > COUNTER_MAX)
    if saturated:
        accumulated = np.minimum(accumulated, COUNTER_MAX)
    return accumulated.astype(np.uint32), saturated


class BloomFilter:
    """Probabilistic set membership over an n-bit vector.

    No false negatives: a bit pattern only ever gains bits, so every
    inserted element keeps answering True. False positives come from
    distinct elements sharing cells.
    """

    kind = "bf"

    def __init__(self, length: int, hash_count: int = 1, seed: int = 0):
        self.family = HashFamily(seed=seed, hash_count=hash_count, size=length)
        self.bits = np.zeros(length, dtype=bool)

    @property
    def length(self) -> int:
        return self.family.size

    @property
    def hash_count(self) -> int:
        return self.family.hash_count

    @property
    def seed(self) -> int:
        return self.family.seed

    def insert(self, element: bytes | str) -> None:
        self.bits[self.family.positions(element)] = True

    def contains(self, element: bytes | str) -> bool:
        """False means definitely never inserted; True means inserted or collision."""
        return bool(self.bits[self.family.positions(element)].all())

    def __contains__(self, element: bytes | str) -> bool:
        return self.contains(element)

    @classmethod
    def from_multiset(cls, multiset: Multiset, length: int, hash_count: int = 1, seed: int = 0) -> "BloomFilter":
        """Membership sketch of a multiset's distinct elements (counts ignored)."""
        sketch = cls(length, hash_count, seed)
        elements, _ = _multiset_arrays(multiset)
        if elements:
            h1, h2 = digest_pairs_bulk(seed, elements)
            sketch.bits[_double_hash_positions(h1, h2, hash_count, length).ravel()] = True
        return sketch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return self.family == other.family and np.array_equal(self.bits, other.bits)

    def __repr__(self) -> str:
        return f"BloomFilter(length={self.length}, hash_count={self.hash_count}, seed={self.seed})"


def _double_hash_positions(h1: np.ndarray, h2: np.ndarray, hash_count: int, size: int) -> np.ndarray:
    """(hash_count, n_elements) table indices via wrapped double hashing."""
    steps = np.arange(hash_count, dtype=np.uint64)[:, None]
    return ((h1[None, :] + steps * h2[None, :]) % np.uint64(size)).astype(np.int64)


class CountingBloomFilter:
    """Bloom filter with a 32-bit saturating counter per cell.

    A point query returns the minimum counter over the element's k
    positions, which is always >= the true count: collisions only ever
    add. One element may hit the same cell with two of its index
    functions; the cell is incremented twice, keeping the invariant
    sum(counters) == hash_count * total_insertions (absent saturation).
    """

    kind = "cbf"

    def __init__(self, length: int, hash_count: int = 1, seed: int = 0):
        self.family = HashFamily(seed=seed, hash_count=hash_count, size=length)
        self.counters = np.zeros(length, dtype=np.uint32)
        self.total_insertions = 0
        self._saturated = False

    @property
    def length(self) -> int:
        return self.family.size

    @property
    def hash_count(self) -> int:
        return self.family.hash_count

    @property
    def seed(self) -> int:
        return self.family.seed

    @property
    def saturated(self) -> bool:
        """True once any cell has been clamped at COUNTER_MAX."""
        return self._saturated

    def insert(self, element: bytes | str, times: int = 1) -> None:
        _check_times(times)
        for position in self.family.positions(element):
            current = int(self.counters[position]) + times
            if current > COUNTER_MAX:
                current = COUNTER_MAX
                self._saturated = True
            self.counters[position] = current
        self.total_insertions += times

    def estimate_count(self, element: bytes | str) -> int:
        """Upper-bound estimate: minimum counter across the element's positions."""
        return int(self.counters[self.family.positions(element)].min())

    @classmethod
    def from_multiset(cls, multiset: Multiset, length: int, hash_count: int = 1, seed: int = 0) -> "CountingBloomFilter":
        """Sketch of a whole multiset; order-independent by construction."""
        elements, counts = _multiset_arrays(multiset)
        h1, h2 = digest_pairs_bulk(seed, elements)
        sketch = cls.from_digest_counts(h1, h2, counts, length=length, hash_count=hash_count, seed=seed)
        sketch.total_insertions = multiset.cardinality()
        return sketch

    @classmethod
    def from_digest_counts(
        cls,
        h1: np.ndarray,
        h2: np.ndarray,
        counts: np.ndarray,
        *,
        length: int,
        hash_count: int = 1,
        seed: int = 0,
    ) -> "CountingBloomFilter":
        """Bulk build from precomputed digest arrays (see digest_pairs_bulk).

        The accumulator behind every CBF build. Counts come from
        `_multiset_arrays`, already clipped so the int64 sums are exact;
        callers that memoise digests (the experiment grid) pass the same
        arrays for many (length, hash_count) combinations.
        """
        sketch = cls(length, hash_count, seed)
        if len(h1):
            accumulated = np.zeros(length, dtype=np.int64)
            positions = _double_hash_positions(h1, h2, hash_count, length)
            np.add.at(accumulated, positions.ravel(), np.broadcast_to(counts, positions.shape).ravel())
            sketch.counters, sketch._saturated = _clip_saturating(accumulated)
            sketch.total_insertions = int(counts.sum())
        return sketch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountingBloomFilter):
            return NotImplemented
        return self.family == other.family and np.array_equal(self.counters, other.counters)

    def __repr__(self) -> str:
        return (
            f"CountingBloomFilter(length={self.length}, hash_count={self.hash_count}, "
            f"seed={self.seed}, total_insertions={self.total_insertions})"
        )


class CountMinSketch:
    """depth x width counter matrix, one single-function hash family per row.

    Row seeds derive deterministically from the base seed, so one seed
    fully describes the sketch. A point query returns the row-wise
    minimum, an upper bound on the true count for the same reason as the
    CBF estimate.
    """

    kind = "cms"

    def __init__(self, width: int, depth: int, seed: int = 0):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.width = width
        self.depth = depth
        self.seed = seed
        self.row_seeds = [derive_row_seed(seed, row) for row in range(depth)]
        self.row_families = [HashFamily(seed=s, hash_count=1, size=width) for s in self.row_seeds]
        self.table = np.zeros((depth, width), dtype=np.uint32)
        self.total_insertions = 0
        self._saturated = False

    @property
    def saturated(self) -> bool:
        return self._saturated

    def _row_positions(self, element: bytes | str) -> list[int]:
        key = as_element(element)
        return [family.positions(key)[0] for family in self.row_families]

    def insert(self, element: bytes | str, times: int = 1) -> None:
        _check_times(times)
        for row, position in enumerate(self._row_positions(element)):
            current = int(self.table[row, position]) + times
            if current > COUNTER_MAX:
                current = COUNTER_MAX
                self._saturated = True
            self.table[row, position] = current
        self.total_insertions += times

    def estimate_count(self, element: bytes | str) -> int:
        positions = self._row_positions(element)
        return int(min(self.table[row, position] for row, position in enumerate(positions)))

    @classmethod
    def from_multiset(cls, multiset: Multiset, width: int, depth: int, seed: int = 0) -> "CountMinSketch":
        """Sketch of a whole multiset; order-independent by construction."""
        elements, counts = _multiset_arrays(multiset)
        row_h1 = [digest1_bulk(derive_row_seed(seed, row), elements) for row in range(depth)]
        sketch = cls.from_row_digests(row_h1, counts, width=width, depth=depth, seed=seed)
        sketch.total_insertions = multiset.cardinality()
        return sketch

    @classmethod
    def from_row_digests(
        cls,
        row_h1: list[np.ndarray],
        counts: np.ndarray,
        *,
        width: int,
        depth: int,
        seed: int = 0,
    ) -> "CountMinSketch":
        """Bulk build from one precomputed h1 array per row (see digest1_bulk).

        The accumulator behind every CMS build; counts as for
        CountingBloomFilter.from_digest_counts.
        """
        if len(row_h1) != depth:
            raise ValueError(f"expected {depth} digest rows, got {len(row_h1)}")
        sketch = cls(width, depth, seed)
        if depth and len(counts):
            accumulated = np.zeros((depth, width), dtype=np.int64)
            for row, h1 in enumerate(row_h1):
                columns = (h1 % np.uint64(width)).astype(np.int64)
                np.add.at(accumulated[row], columns, counts)
            table, saturated = _clip_saturating(accumulated.ravel())
            sketch.table = table.reshape(depth, width)
            sketch._saturated = saturated
            sketch.total_insertions = int(counts.sum())
        return sketch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountMinSketch):
            return NotImplemented
        return (
            self.width == other.width
            and self.depth == other.depth
            and self.seed == other.seed
            and np.array_equal(self.table, other.table)
        )

    def __repr__(self) -> str:
        return (
            f"CountMinSketch(width={self.width}, depth={self.depth}, seed={self.seed}, "
            f"total_insertions={self.total_insertions})"
        )


def cms_to_cbf(sketch: CountMinSketch) -> CountingBloomFilter:
    """Column-wise row sum of a Count-Min sketch, as a CBF.

    For depth 1 this is exactly the one-hash CBF of the same seed. For
    deeper sketches it is a lossy projection: the counter vector is the
    column sums, but no k-function double-hashing family ever produced
    it, so point queries against it answer for the projection, not for
    a natively built CBF.
    """
    sums = sketch.table.sum(axis=0, dtype=np.int64)
    projected = CountingBloomFilter(sketch.width, hash_count=sketch.depth, seed=sketch.seed)
    projected.counters, overflowed = _clip_saturating(sums)
    projected._saturated = overflowed or sketch.saturated
    projected.total_insertions = sketch.total_insertions
    return projected
