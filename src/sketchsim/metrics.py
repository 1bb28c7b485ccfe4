"""Similarity metrics over sketch pairs.

A score reads only the two sketches' tables: the metric of each pair of
rows, averaged over the rows, so a CBF score is its one row's and a CMS
score the mean of its per-row scores. `METRICS` is the one metric table.

The Dice estimate is exact or an overestimate, never an underestimate:
a collision only adds mass to a cell, and min(a+c, b+d) >= min(a,b) +
min(c,d). The row mean is clamped at the smallest row score, as
math.fsum(rows) / depth can round one step below all of them. Cosine
has no one-sided bound. Each row score is one division of exact integer
sums, so scores are deterministic across platforms, and the cell
scorers equal the row mean bit for bit.

Two sketches are scored only when their shapes (`sketches.SketchParams`)
are equal; `check_witnesses` names every field in which they differ.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from .multiset import UndefinedSimilarityError, _exact_sqrt, cosine, dice
from .sketches import CounterTable, CountMinSketch, CountingBloomFilter, Sketch, SketchParams


class IncompatibleSketchError(ValueError):
    """Comparison attempted between sketches with differing parameters."""

    def __init__(self, mismatched_fields: list[str]):
        self.mismatched_fields = mismatched_fields
        super().__init__("incompatible sketches, differing fields: " + ", ".join(mismatched_fields))


def witness_of(sketch: Sketch) -> SketchParams:
    """The shape of a sketch, which is what its envelope header carries."""
    if not isinstance(sketch, Sketch):
        raise TypeError(f"not a sketch: {type(sketch).__name__}")
    return sketch.params


def check_witnesses(a: SketchParams, b: SketchParams) -> SketchParams:
    """Return the shared shape; two sketches compare iff their shapes are equal.

    Unequal shapes raise, naming every field in which they differ.
    """
    if a != b:
        raise IncompatibleSketchError([f.name for f in fields(SketchParams) if getattr(a, f.name) != getattr(b, f.name)])
    return a


def _require_comparable(p, q, expected_type: type) -> None:
    if not isinstance(p, expected_type) or not isinstance(q, expected_type):
        raise TypeError(f"expected two {expected_type.__name__} instances")
    check_witnesses(p.params, q.params)


def _dice_sums(a: np.ndarray, b: np.ndarray) -> tuple[list[int], list[int]]:
    """Per-row min-sums and joint masses (sum(min) + sum(max) = sum(p) + sum(q)) of two tables' rows, as exact ints."""
    shared = np.minimum(a, b).sum(axis=1, dtype=np.uint64).tolist()
    rest = np.maximum(a, b).sum(axis=1, dtype=np.uint64).tolist()
    return shared, [low + high for low, high in zip(shared, rest)]


def _dice_score(shared, mass) -> float:
    """Mean over rows of 2 * sum_i min(p_i, q_i) / sum_i (p_i + q_i).

    A row pair with zero denominator (both rows empty) is an error, not
    a skipped row: silently dropping rows would bias the average.
    """
    values = []
    for row, (common, total) in enumerate(zip(shared, mass)):
        if total == 0:
            raise UndefinedSimilarityError(f"Dice undefined: row {row} is all-zero in both sketches")
        values.append(2 * common / total)
    return values[0] if len(values) == 1 else max(math.fsum(values) / len(values), min(values))


def _dice_cells(shared, mass) -> np.ndarray:
    """`_dice_score` of many pairs at once, equal to it bit for bit: shared and mass are rows x pairs uint64 sums.

    While every mass is in [1, 2^53), both operands are exact in float64,
    so one division rounds as Python's int / int does; any other batch
    goes to `_dice_score` pair by pair.
    """
    shared, mass = np.asarray(shared, dtype=np.uint64), np.asarray(mass, dtype=np.uint64)
    if not mass.all() or int(mass.max(initial=0)) >= 2**53:
        return np.array([_dice_score(*pair) for pair in zip(shared.T.tolist(), mass.T.tolist())], dtype=np.float64)
    values = 2.0 * shared / mass
    if len(values) == 1:
        return values[0]
    means = np.array(list(map(math.fsum, values.T.tolist())), dtype=np.float64) / len(values)
    return np.maximum(means, values.min(axis=0))


def _cosine_sums(a: np.ndarray, b: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Per-row dot products and squared norms of two tables' rows, from one Gram: in int64 while exact, else Python ints."""
    rows = np.array((a, b), dtype=np.int64).swapaxes(0, 1)  # (rows, 2, width)
    if int(rows.max(initial=0)) ** 2 * a.shape[1] >= 2**63:
        rows = rows.astype(object)
    norm_sq_p, dots, _, norm_sq_q = (rows @ rows.swapaxes(1, 2)).reshape(-1, 4).T.tolist()
    return dots, norm_sq_p, norm_sq_q


def _cosine_score(dots, norms_sq_p, norms_sq_q) -> float:
    """Mean over rows of the cosine of each pair of rows."""
    values = []
    for dot, norm_sq_p, norm_sq_q in zip(dots, norms_sq_p, norms_sq_q):
        if norm_sq_p == 0 or norm_sq_q == 0:
            raise UndefinedSimilarityError("cosine of an all-zero counter vector is undefined")
        values.append(dot / _exact_sqrt(norm_sq_p * norm_sq_q))
    return math.fsum(values) / len(values)


def _cosine_cells(dots, norms_sq_p, norms_sq_q) -> np.ndarray:
    """`_cosine_score` of each of many pairs: every argument holds, per row, that sum of each pair."""
    return np.array([_cosine_score(*pair) for pair in zip(*(zip(*rows) for rows in (dots, norms_sq_p, norms_sq_q)))],
                    dtype=np.float64)


# The one metric table: metric -> (exact oracle, row sums of paired table rows, row mean over those
# sums, cell scorer: the row mean of many pairs at once); the named scorers, the grid engine and the
# CLI all read it.
METRICS = {"dice": (dice, _dice_sums, _dice_score, _dice_cells),
           "cosine": (cosine, _cosine_sums, _cosine_score, _cosine_cells)}


def score(metric: str, p: CounterTable, q: CounterTable, sketch_type: type = CounterTable) -> float:
    """The sketch estimate of `metric` for two comparable counter tables of `sketch_type`."""
    _require_comparable(p, q, sketch_type)
    _, sums, row_mean, _ = METRICS[metric]
    return row_mean(*sums(p.table, q.table))


def cbf_dice(p: CountingBloomFilter, q: CountingBloomFilter) -> float:
    """Dice coefficient of two CBFs.

    2 * sum_i min(p_i, q_i) / sum_i (p_i + q_i). The denominator is the
    cross sum of both full counter vectors; with k hash functions it
    equals k * (|X| + |Y|), so the score keeps the Dice scale.
    """
    return score("dice", p, q, CountingBloomFilter)


def cms_dice(r: CountMinSketch, s: CountMinSketch) -> float:
    """Dice coefficient of two CMSs: mean of the per-row CBF Dice values."""
    return score("dice", r, s, CountMinSketch)


def cbf_cosine(p: CountingBloomFilter, q: CountingBloomFilter) -> float:
    """Cosine similarity of two CBF counter vectors."""
    return score("cosine", p, q, CountingBloomFilter)


def cms_cosine(r: CountMinSketch, s: CountMinSketch) -> float:
    """Cosine similarity of two CMSs: mean of the per-row cosine values."""
    return score("cosine", r, s, CountMinSketch)
