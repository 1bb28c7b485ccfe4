"""Sketch shapes, the Bloom Filter, and the counter table behind the CBF and the Count-Min Sketch.

Every sketch is a `Sketch`: its shape, `SketchParams`, and a depth x
width `table` of cells. `SketchParams` is the only check of the shape
rules and `SKETCH_KINDS` the only kind -> class table; two sketches are
comparable iff their shapes are equal.

Every sketch takes its shape from `_shape`, a bounded memo of
`SketchParams` keyed by the constructor's arguments and their types, so
an argument equal to a valid one but of another type (128.0, True,
np.int64(128)) is checked, and refused, on every call; an error is never
kept, and an unhashable argument is checked without the memo. The
envelope decoder takes its shapes from the same memo. Each
shape object carries its build plan (`SketchParams._plan`), made at its
first build: the FNV start states of its rows' digests as one uint64
array and the flat index of each row's first cell. The plan is the only
memo of digest state: `hashing` keeps none, and the grid engine digests
its vocabulary from its largest shape's plan, as a build does.

There is one placement path. Every build's counts pass `_clip_counts`,
the one count clip (through `_multiset_arrays`, or in the grid engine's
columns), every cell comes from `_probe_positions` over digests from
`hashing._digests` (from the start states a plan keeps), and every add
goes through `_count_rows`, which holds the one clamp. A build is
`_multiset_arrays`, one FNV pass, the mix, the probe columns and one
`_count_rows` call. `from_multiset` and `insert` are both `_add`: an
insert is the bulk build of a one-element multiset. So a one-row
Count-Min sketch is cell for cell the one-hash CBF of the same seed; no
sketch is converted to another kind.

Counters saturate at COUNTER_MAX instead of raising, and a sketch is
`saturated` when a cell sits there, which both ends of an envelope can
read. Queries are one-sided: `estimate_count` never undercounts and
`contains` never misses an inserted element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hashing import _check_seed, _digests, _probe_positions, _start_states, derive_row_seed
from .multiset import Multiset, as_element

COUNTER_MAX = 2**32 - 1
_FIELD_MAX = 2**32 - 1  # width, depth and hash_count travel as uint32 header fields
_SHAPE_MEMO = 256  # distinct valid shapes kept as one SketchParams each


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
        # set with the fields: an attribute added later through __dict__ would slow every field read after it
        object.__setattr__(self, "_plan_arrays", None)

    @property
    def row_seeds(self) -> tuple[int, ...]:
        """The seed each row hashes with, derive_row_seed(seed, r) for r < depth.

        Derived afresh on each call; a shape's `_plan` calls this once and
        keeps the start states the rows' digests begin from.
        """
        return tuple(derive_row_seed(self.seed, row) for row in range(self.depth))

    @property
    def _plan(self) -> tuple[np.ndarray, np.ndarray]:
        """The build plan, made at this shape's first build and only read after: (start states, row offsets).

        The start states are the FNV start state of each digest the rows
        need, as one uint64 array; the row offsets are the flat index of
        each row's first cell, shape (depth, 1).
        """
        if self._plan_arrays is None:
            plan = (_start_states(self.row_seeds, self.hash_count),
                    np.arange(0, self.depth * self.width, self.width).reshape(-1, 1))
            for array in plan:
                array.flags.writeable = False  # every build of this shape shares it
            object.__setattr__(self, "_plan_arrays", plan)
        return self._plan_arrays

    def sketch(self, multiset: Multiset) -> Sketch:
        """This shape's sketch of a multiset, built by `from_multiset`."""
        # every constructor takes (width, k or d, seed), and one of depth and hash count is 1
        return SKETCH_KINDS[self.kind].from_multiset(multiset, self.width, self.depth * self.hash_count, self.seed)


# typed, so 128.0, True or np.int64(128) is checked on every call, never matched to 128's shape
_shape_memo = lru_cache(maxsize=_SHAPE_MEMO, typed=True)(SketchParams)  # an exception raised is never cached


def _shape(kind: str, width: int, depth: int, hash_count: int, seed: int) -> SketchParams:
    """The shape every sketch constructor and envelope header takes: one `SketchParams` per memoised shape."""
    try:
        return _shape_memo(kind, width, depth, hash_count, seed)
    except TypeError:  # an unhashable argument has no memo key: SketchParams checks it alone
        return SketchParams(kind, width, depth, hash_count, seed)


def _multiset_arrays(multiset: Multiset) -> tuple[list[bytes], np.ndarray]:
    """A multiset's elements and their `_clip_counts` counts: the only Multiset -> array step of every build."""
    entries = multiset._entries  # keys are elements, values their positive counts
    return list(entries), _clip_counts(np.fromiter(entries.values(), dtype=np.uint64, count=len(entries)))


def _clip_counts(counts: np.ndarray) -> np.ndarray:
    """uint64 counts as int64 counts for a build, each clipped to COUNTER_MAX + 1: the one count clip.

    The clip keeps int64 sums exact while a clipped count still saturates
    its cell.
    """
    return np.minimum(counts, COUNTER_MAX + 1).view(np.int64)  # every clipped count fits


def _count_rows(table: np.ndarray, cells: np.ndarray, counts: np.ndarray) -> None:
    """The one accumulator: add counts into a C-contiguous rows x width uint32 table in place, saturating.

    Each entry of `cells`, a flat index (row * width + column), adds its
    entry of `counts` (same shape). Indices are flat: np.add.at with 2-D
    indices and broadcast values varies by numpy.
    """
    cells, values = cells.ravel(), counts.ravel()
    if int(table.max(initial=0)) + int(values.sum()) <= COUNTER_MAX:
        np.add.at(table.reshape(-1), cells, values.astype(np.uint32, copy=False))  # int64 values would take numpy's slow path
        return
    accumulated = table.astype(np.int64)
    np.add.at(accumulated.reshape(-1), cells, values)
    table[...] = np.minimum(accumulated, COUNTER_MAX)  # exact sums; each past COUNTER_MAX is stuck at it


class Sketch:
    """A sketch: its shape (`params`) and a depth x width `table` of cells, uint32 counters or a BF's bits."""

    kind = ""
    _dtype: type = np.uint32

    def __init__(self, width: int, depth: int = 1, hash_count: int = 1, seed: int = 0):
        self.params = _shape(self.kind, width, depth, hash_count, seed)
        self.table = np.zeros((depth, width), dtype=self._dtype)

    width = property(lambda self: self.params.width)
    depth = property(lambda self: self.params.depth)
    hash_count = property(lambda self: self.params.hash_count)
    seed = property(lambda self: self.params.seed)

    def _cells(self, elements: list[bytes]) -> np.ndarray:
        """The flat table index of every probe of each element in each row, shape (hash_count, depth, len(elements))."""
        states, row_offsets = self.params._plan
        return _probe_positions(_digests(states, self.hash_count, elements), self.hash_count, self.width) + row_offsets

    @classmethod
    def from_multiset(cls, multiset: Multiset, *args, **kwargs):
        """Sketch of a whole multiset; the other arguments are the constructor's. Order-independent by construction."""
        sketch = cls(*args, **kwargs)
        sketch._add(*_multiset_arrays(multiset))
        return sketch

    def insert(self, element: bytes | str, times: int = 1) -> None:
        """Add `times` instances of one element: the bulk build of a one-element multiset, into this table."""
        self._add(*_multiset_arrays(Multiset([(element, times)])))

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

    def _add(self, elements: list[bytes], counts: np.ndarray) -> None:
        self.bits[self._cells(elements)] = True  # one row: its cells are its columns; counts ignored

    def contains(self, element: bytes | str) -> bool:
        """False means definitely never inserted; True means inserted or collision."""
        return bool(self.bits[self._cells([as_element(element)])].all())

    __contains__ = contains


class CounterTable(Sketch):
    """depth x width matrix of 32-bit saturating counters; row r hashes with derive_row_seed(seed, r).

    Each element adds its count at each of its hash_count probes per row,
    so a cell two probes hit gains it twice. Build one through
    CountingBloomFilter (one row) or CountMinSketch (one probe per row).
    """

    @property
    def saturated(self) -> bool:
        """True when any cell sits at COUNTER_MAX, the one rule both ends of an envelope can apply."""
        return bool((self.table == COUNTER_MAX).any())

    def _add(self, elements: list[bytes], counts: np.ndarray) -> None:
        cells = self._cells(elements)
        probe_counts = np.empty_like(cells)  # each probe of an element adds the element's count
        probe_counts[...] = counts
        _count_rows(self.table, cells, probe_counts)

    def estimate_count(self, element: bytes | str) -> int:
        """Upper-bound estimate: minimum counter across the element's probed cells."""
        return int(self.table.take(self._cells([as_element(element)])).min())


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
