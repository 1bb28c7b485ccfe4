"""Sketch shapes, the Bloom Filter, and the counter table behind the CBF and the Count-Min Sketch.

Every sketch is a `Sketch`: a shape, `SketchParams` (kind, width, depth,
hash count and seed), and a depth x width `table` of cells. The base
holds the construction, the shape properties, equality and the repr
once for every kind. Two sketches are comparable iff their shapes are
equal, and an envelope header carries exactly these fields.
`SketchParams` is the only code that checks the shape rules (a "bf" or
"cbf" is one row probed k times, a "cms" is d rows probed once each),
and `SKETCH_KINDS` is the only kind -> class table; every constructor
validates through it. A Bloom Filter's table is one row of bools, its
`bits` being `table[0]`.

Every structure takes its cells from `hashing._probe_positions`, the
one implementation of the index formula, whether it places one element
(`insert`, `estimate_count`, `contains`, by `digest_pair`) or a whole
multiset (`from_multiset` and the grid engine's rows, by one `digest_rows`
call over every row seed of the shape). The two counting
sketches are one structure, `CounterTable`: a depth x width matrix of
32-bit counters in which row r hashes with
`derive_row_seed(seed, r)` and probes each element `hash_count` times.
A Counting Bloom Filter is the one-row case (one row probed k times, its
`counters` being `table[0]`); a Count-Min Sketch is the one-probe case
(d rows probed once each). A one-row Count-Min sketch is therefore cell
for cell the one-hash CBF of the same seed, and summing the rows of a
Count-Min sketch column-wise yields a CBF (`cms_to_cbf`).

Counters saturate: a cell that would overflow sticks at COUNTER_MAX
instead of erroring, so one hot cell cannot abort a profile exchange;
`_clip_saturating` is the only clamp. A sketch is `saturated` when a cell
sits at COUNTER_MAX, so both ends of an envelope read the same flag.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .hashing import _check_seed, _probe_positions, _row_seed, digest_pair, digest_rows
from .multiset import Multiset, _check_times

COUNTER_MAX = 2**32 - 1
_FIELD_MAX = 2**32 - 1  # width, depth and hash_count travel as uint32 header fields


@dataclass(frozen=True)
class SketchParams:
    """One sketch shape: kind "bf" or "cbf" (width = length n, hash_count = k) or "cms" (width, depth = d)."""

    kind: str
    width: int
    depth: int = 1
    hash_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SKETCH_KINDS:
            raise ValueError(f"kind must be one of {', '.join(map(repr, SKETCH_KINDS))}, got {self.kind!r}")
        if not all(type(size) is int and 1 <= size <= _FIELD_MAX for size in (self.width, self.depth, self.hash_count)):
            raise ValueError(f"width, depth and hash_count must all be ints in [1, {_FIELD_MAX}]")
        _check_seed(self.seed)
        if self.kind == "cms" and self.hash_count != 1:
            raise ValueError(f"a cms probes each row once: hash_count must be 1, got {self.hash_count}")
        if self.kind != "cms" and self.depth != 1:
            raise ValueError(f"a {self.kind} is one row: depth must be 1, got {self.depth}")

    @property
    def row_seeds(self) -> tuple[int, ...]:
        """The seed each row hashes with, derive_row_seed(seed, r) for r < depth.

        The seed was checked when the shape was made, so each row comes
        from the cached `_row_seed`, with no check per row.
        """
        return tuple(_row_seed(self.seed, row) for row in range(self.depth))

    def sketch(self, multiset: Multiset) -> Sketch:
        """This shape's sketch of a multiset, built by `from_multiset`."""
        # every constructor takes (width, k or d, seed), and one of depth and hash count is 1
        return SKETCH_KINDS[self.kind].from_multiset(multiset, self.width, self.depth * self.hash_count, self.seed)


def _multiset_arrays(multiset: Multiset) -> tuple[list[bytes], np.ndarray]:
    """A multiset's elements and their int64 counts, each clipped to COUNTER_MAX + 1.

    The clip keeps the int64 accumulators exact (a cell sums at most
    distinct * hash_count clipped counts) while a cell holding a clipped
    count still exceeds COUNTER_MAX, so it saturates to the value
    sequential inserts give. This is the only Multiset -> array step of
    every counting-sketch build.
    """
    entries = multiset._entries  # keys are elements, values their positive counts
    counts = np.fromiter(entries.values(), dtype=np.uint64, count=len(entries))
    return list(entries), np.minimum(counts, COUNTER_MAX + 1).astype(np.int64)


def _clip_saturating(accumulated: np.ndarray) -> np.ndarray:
    """Exact int64 counter sums as uint32 cells, each past COUNTER_MAX stuck at it."""
    return np.minimum(accumulated, COUNTER_MAX).astype(np.uint32)


def _element_cells(params: SketchParams, element: bytes | str) -> np.ndarray:
    """Flat (row * width + column) index of every probe of one element in a sketch of this shape.

    The element's `digest_pair` under each row seed goes through
    `_probe_positions` as uint64 arrays, so these are the cells a bulk
    build gives the element; entry [i, r] is probe i of row r.
    """
    h1, h2 = np.array([digest_pair(seed, element) for seed in params.row_seeds], dtype=np.uint64).T
    return np.arange(params.depth) * params.width + _probe_positions((h1, h2), params.hash_count, params.width)


def _count_rows(table: np.ndarray, positions: np.ndarray, owners: np.ndarray, counts: np.ndarray) -> None:
    """The one bulk accumulator: add counts into a C-contiguous rows x width uint32 table in place, saturating.

    Each entry of `positions` (columns from `_probe_positions`) adds its
    entry of `counts` (same shape) in its owner row; `owners` broadcasts
    against `positions`. When the table's largest cell plus all the
    counts stays within COUNTER_MAX, no cell can saturate and the counts
    go straight into the table. Otherwise the sums are exact in int64 for
    counts from `_multiset_arrays`, and a clipped table takes more as
    min(min(a, M) + b, M) = min(a + b, M). Indices are flat: np.add.at
    with 2-D indices and broadcast values varies by numpy.
    """
    cells, values = (owners * table.shape[1] + positions).ravel(), counts.ravel()
    if int(table.max(initial=0)) + int(values.sum()) <= COUNTER_MAX:
        np.add.at(table.reshape(-1), cells, values.astype(np.uint32))  # int64 values would take numpy's slow path
        return
    accumulated = table.astype(np.int64)
    np.add.at(accumulated.reshape(-1), cells, values)
    table[...] = _clip_saturating(accumulated)


class Sketch:
    """A sketch: its shape (`params`) and a depth x width `table` of cells, uint32 counters or a BF's bits."""

    kind = ""
    _dtype: type = np.uint32

    def __init__(self, width: int, depth: int = 1, hash_count: int = 1, seed: int = 0):
        self.params = SketchParams(self.kind, width, depth, hash_count, seed)
        self.table = np.zeros((depth, width), dtype=self._dtype)

    width = property(lambda self: self.params.width)
    depth = property(lambda self: self.params.depth)
    hash_count = property(lambda self: self.params.hash_count)
    seed = property(lambda self: self.params.seed)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.params == other.params and np.array_equal(self.table, other.table)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(width={self.width}, depth={self.depth}, hash_count={self.hash_count}, "
                f"seed={self.seed})")


class BloomFilter(Sketch):
    """Probabilistic set membership over an n-bit vector, one row of bits probed hash_count times.

    No false negatives: a bit pattern only ever gains bits, so every
    inserted element keeps answering True. False positives come from
    distinct elements sharing cells.
    """

    kind = "bf"
    _dtype = bool

    def __init__(self, length: int, hash_count: int = 1, seed: int = 0):
        super().__init__(length, 1, hash_count, seed)

    length = property(lambda self: self.width)
    bits = property(lambda self: self.table[0], doc="The bit vector, a view of table[0].")

    def insert(self, element: bytes | str) -> None:
        self.bits[_element_cells(self.params, element)] = True

    def contains(self, element: bytes | str) -> bool:
        """False means definitely never inserted; True means inserted or collision."""
        return bool(self.bits[_element_cells(self.params, element)].all())

    __contains__ = contains

    @classmethod
    def from_multiset(cls, multiset: Multiset, length: int, hash_count: int = 1, seed: int = 0) -> "BloomFilter":
        """Membership sketch of a multiset's distinct elements (counts ignored)."""
        sketch = cls(length, hash_count, seed)
        digests = digest_rows(sketch.params.row_seeds, hash_count, list(multiset.elements()))
        sketch.bits[_probe_positions(digests, hash_count, length)] = True
        return sketch


class CounterTable(Sketch):
    """depth x width matrix of 32-bit saturating counters.

    Row r hashes with derive_row_seed(seed, r) and probes each element
    hash_count times by double hashing. An insert adds its count at every
    probe, so a cell that two probes of one element hit is incremented
    twice and every row sums to hash_count times the number of insertions
    counted with multiplicity (absent saturation). A point query returns
    the minimum over the element's probed cells, which is always >= the
    true count: collisions only ever add. Build one through
    CountingBloomFilter (one row) or CountMinSketch (one probe per row).
    """

    @property
    def saturated(self) -> bool:
        """True when any cell sits at COUNTER_MAX, the one rule both ends of an envelope can apply."""
        return bool((self.table == COUNTER_MAX).any())

    def insert(self, element: bytes | str, times: int = 1) -> None:
        """Add `times` at each probe of the element; a cell two probes hit gains it twice."""
        _check_times(times)
        # each distinct cell and the number of probes on it, counted in O(k) time
        cells, probes = np.array(list(Counter(_element_cells(self.params, element).ravel().tolist()).items())).T
        # times past COUNTER_MAX + 1 saturate alike, and the clip keeps the int64 sum exact
        self.table.put(cells, _clip_saturating(self.table.take(cells) + probes * min(times, COUNTER_MAX + 1)))

    def estimate_count(self, element: bytes | str) -> int:
        """Upper-bound estimate: minimum counter across the element's probed cells."""
        return int(self.table.take(_element_cells(self.params, element)).min())

    @classmethod
    def from_multiset(cls, multiset: Multiset, *args, **kwargs):
        """Sketch of a whole multiset; the other arguments are the constructor's.

        Order-independent by construction, and equal cell for cell to
        inserting every element with its count.
        """
        sketch = cls(*args, **kwargs)
        elements, counts = _multiset_arrays(multiset)
        digests = digest_rows(sketch.params.row_seeds, sketch.hash_count, elements)  # each (depth, elements)
        positions = _probe_positions(digests, sketch.hash_count, sketch.width)  # (hash_count, depth, elements)
        probe_counts = np.empty_like(positions)  # each probe of an element adds the element's count
        probe_counts[...] = counts
        _count_rows(sketch.table, positions, np.arange(sketch.depth)[:, None], probe_counts)
        return sketch


class CountingBloomFilter(CounterTable):
    """One row of `length` counters, probed hash_count times (the paper's CBF)."""

    kind = "cbf"

    def __init__(self, length: int, hash_count: int = 1, seed: int = 0):
        super().__init__(length, 1, hash_count, seed)

    length = property(lambda self: self.width)
    counters = property(lambda self: self.table[0], doc="The counter vector, a view of table[0].")


class CountMinSketch(CounterTable):
    """depth rows of `width` counters, each probed once under its own row seed."""

    kind = "cms"

    def __init__(self, width: int, depth: int, seed: int = 0):
        super().__init__(width, depth, 1, seed)


SKETCH_KINDS = {sketch_type.kind: sketch_type for sketch_type in (BloomFilter, CountingBloomFilter, CountMinSketch)}


def _from_state(params: SketchParams, table: np.ndarray) -> Sketch:
    """A sketch of a checked shape holding `table` (depth x width, its kind's cell type) as is, no zeros to overwrite."""
    sketch = object.__new__(SKETCH_KINDS[params.kind])
    vars(sketch).update(params=params, table=table)
    return sketch


def cms_to_cbf(sketch: CountMinSketch) -> CountingBloomFilter:
    """Column-wise row sum of a Count-Min sketch, as a CBF.

    For depth 1 this is exactly the one-hash CBF of the same seed. For
    deeper sketches it is a lossy projection: the counter vector is the
    column sums, but no k-function double-hashing family ever produced
    it, so point queries against it answer for the projection, not for
    a natively built CBF.
    """
    table = _clip_saturating(sketch.table.sum(axis=0, dtype=np.int64, keepdims=True))
    return _from_state(SketchParams("cbf", sketch.width, 1, sketch.depth, sketch.seed), table)
