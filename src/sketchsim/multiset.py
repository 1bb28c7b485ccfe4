"""Exact multiset ground truth: counted elements, Dice and cosine similarity.

Every sketch-level estimate in this package is measured against the exact
scores computed here. Elements are opaque byte strings (str input is
UTF-8 encoded); counts are positive integers capped at 64 bits so the
exact side always has strictly more range than the 32-bit sketch
counters.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

COUNT_MAX = 2**64 - 1


class UndefinedSimilarityError(ValueError):
    """Similarity asked for a pair whose denominator is zero."""


def as_element(value: bytes | str) -> bytes:
    """Normalize an element to its byte-string key.

    Accepts bytes as-is and encodes str as UTF-8. Empty elements are
    rejected: an empty key cannot be hashed meaningfully and never
    appears in real profiles.
    """
    if isinstance(value, str):
        value = value.encode("utf-8")
    elif not isinstance(value, (bytes, bytearray)):
        raise TypeError(f"element must be bytes or str, got {type(value).__name__}")
    value = bytes(value)
    if not value:
        raise ValueError("element must be non-empty")
    return value


def _check_times(times: int) -> int:  # the one check of an insert count, for multisets and sketches
    if not isinstance(times, int) or times < 1:
        raise ValueError(f"times must be a positive integer, got {times!r}")
    return times


class Multiset:
    """A multiset: element -> positive count, with exact similarity math.

    Absent elements have count 0; no entry is ever stored with count 0.
    Instances are mutable while being built (single writer) and treated
    as immutable values once handed to comparisons.
    """

    __slots__ = ("_entries", "_total")

    def __init__(self, entries: Mapping[bytes | str, int] | Iterable[tuple[bytes | str, int]] | None = None):
        self._entries: dict[bytes, int] = {}
        self._total = 0
        if entries is not None:
            items = entries.items() if isinstance(entries, Mapping) else entries
            for element, count in items:
                self.insert(element, count)

    @classmethod
    def _from_checked(cls, entries: dict[bytes, int]) -> Multiset:
        """Wrap `entries` as they are; the caller has checked what `insert` would."""
        multiset = cls.__new__(cls)
        multiset._entries, multiset._total = entries, sum(entries.values())
        return multiset

    def insert(self, element: bytes | str, times: int = 1) -> None:
        """Add `times` instances of `element`."""
        key = as_element(element)
        new = self._entries.get(key, 0) + _check_times(times)
        if new > COUNT_MAX:
            raise OverflowError(f"count for {key!r} exceeds 64-bit range")
        self._entries[key] = new
        self._total += times

    def count(self, element: bytes | str) -> int:
        return self._entries.get(as_element(element), 0)

    def cardinality(self) -> int:
        """Total number of element instances (sum of all counts)."""
        return self._total

    def distinct_count(self) -> int:
        """Number of distinct elements."""
        return len(self._entries)

    def items(self) -> Iterator[tuple[bytes, int]]:
        return iter(self._entries.items())

    def elements(self) -> Iterator[bytes]:
        return iter(self._entries)

    def __contains__(self, element: bytes | str) -> bool:
        return as_element(element) in self._entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"Multiset({self.distinct_count()} distinct, cardinality {self._total})"


def intersection_cardinality(x: Multiset, y: Multiset) -> int:
    """Multiset intersection size: sum over elements of min(count_x, count_y)."""
    small, large = (x, y) if x.distinct_count() <= y.distinct_count() else (y, x)
    entries = large._entries  # keys are already elements; count() would re-validate each one
    return sum(min(count, entries.get(element, 0)) for element, count in small.items())


def dice(x: Multiset, y: Multiset) -> float:
    """Exact Dice coefficient of two multisets, in [0, 1].

    2 * |X ∩ Y| / (|X| + |Y|) with the multiset intersection and
    cardinalities. Comparing two empty multisets is an error rather
    than a silent 0 or 1.
    """
    denominator = x.cardinality() + y.cardinality()
    if denominator == 0:
        raise UndefinedSimilarityError("Dice of two empty multisets is undefined")
    return 2 * intersection_cardinality(x, y) / denominator


def cosine(x: Multiset, y: Multiset) -> float:
    """Exact cosine similarity of the count vectors of two multisets.

    Counts are non-negative, so the score lies in [0, 1]. Either input
    being empty means a zero-norm vector: an error, not a score.
    """
    if x.cardinality() == 0 or y.cardinality() == 0:
        raise UndefinedSimilarityError("cosine with an empty multiset is undefined")
    small, large = (x, y) if x.distinct_count() <= y.distinct_count() else (y, x)
    entries = large._entries
    dot = sum(count * entries.get(element, 0) for element, count in small.items())
    norm_sq_x = sum(count * count for _, count in x.items())
    norm_sq_y = sum(count * count for _, count in y.items())
    return dot / _exact_sqrt(norm_sq_x * norm_sq_y)


def _exact_sqrt(value: int) -> float:
    # Perfect squares (always the case for self-comparison) take the
    # integer root so identity comes out as exactly 1.0.
    root = math.isqrt(value)
    if root * root == value:
        return float(root)
    return math.sqrt(value)
