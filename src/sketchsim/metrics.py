"""Similarity metrics over sketch pairs.

A score reads only the two sketches' tables: the metric of each pair of
rows, averaged over the rows, so a CBF score is its one row's and a CMS
score the mean of its per-row scores. `METRICS` is the one metric table,
and its row sums are the only code that reduces paired rows: Dice's are
each row pair's sum(min) and sum(max) as uint64 arrays, from which both
the scalar row mean and the grid engine's cell scorer form the joint
mass sum(min) + sum(max) = sum(p) + sum(q).

The Dice estimate is exact or an overestimate, never an underestimate:
a collision only adds mass to a cell, and min(a+c, b+d) >= min(a,b) +
min(c,d). The row mean is clamped at the smallest row score, as
math.fsum(rows) / depth can round one step below all of them. Cosine
has no one-sided bound. Each row score is one division of exact integer
sums, so scores are deterministic across platforms, and the cell
scorers equal the row mean bit for bit.

Two sketches are scored only when their shapes (`sketches.SketchParams`)
are equal; `check_witnesses` names every field in which they differ, and
passes one shape object (what two envelopes with one header decode to)
without comparing fields. Each named scorer is one call of `score`: the
type and shape checks, then the `METRICS` row sums and row mean.
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
    if a is not b and a != b:  # equal headers decode to one shape object
        raise IncompatibleSketchError([f.name for f in fields(SketchParams) if getattr(a, f.name) != getattr(b, f.name)])
    return a


def _dice_sums(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sum(min(p_i, q_i)) and sum(max(p_i, q_i)) of two tables' paired rows, as uint64 arrays."""
    return np.minimum(a, b).sum(axis=1, dtype=np.uint64), np.maximum(a, b).sum(axis=1, dtype=np.uint64)


def _dice_score(shared, rest) -> float:
    """Mean over rows of 2 * sum_i min(p_i, q_i) / sum_i (p_i + q_i), from each row's min-sum and max-sum as ints.

    The denominator is the joint mass sum(min) + sum(max). A row pair
    with zero mass (both rows empty) is an error, not a skipped row:
    silently dropping rows would bias the average.
    """
    values = []
    for row, (low, high) in enumerate(zip(shared, rest)):
        if not high:
            raise UndefinedSimilarityError(f"Dice undefined: row {row} is all-zero in both sketches")
        values.append(2 * low / (low + high))
    return values[0] if len(values) == 1 else max(math.fsum(values) / len(values), min(values))


def _dice_cells(shared, rest) -> np.ndarray:
    """`_dice_score` of many pairs at once, equal to it bit for bit: each sum holds, per row, an array of pairs.

    The arrays are uint64, or object arrays of Python ints where a sum may
    pass uint64's range. While every max-sum is in [1, 2^52), each joint
    mass is below 2^53, so both operands of the division are exact in
    float64 and it rounds as Python's int / int does; any other batch
    goes to `_dice_score` pair by pair.
    """
    shared, rest = np.asarray(shared), np.asarray(rest)  # rows x pairs, uint64 or (past its range) Python ints
    if not rest.all() or int(rest.max(initial=0)) >= 2**52:
        return np.array([_dice_score(*pair) for pair in zip(shared.T.tolist(), rest.T.tolist())], dtype=np.float64)
    shared, rest = shared.astype(np.uint64, copy=False), rest.astype(np.uint64, copy=False)
    values = 2.0 * shared / (shared + rest)
    if len(values) == 1:
        return values[0]
    means = np.array(list(map(math.fsum, values.T.tolist())), dtype=np.float64) / len(values)
    return np.maximum(means, values.min(axis=0))


def _cosine_sums(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray]:
    """Each row pair's Gram: a 4 x rows array of sum(pp), sum(pq), sum(qp), sum(qq), int64 while exact, else ints."""
    rows = np.array((a, b), dtype=np.int64).swapaxes(0, 1)  # (rows, 2, width)
    if int(rows.max(initial=0)) ** 2 * a.shape[1] >= 2**63:
        rows = rows.astype(object)
    return ((rows @ rows.swapaxes(1, 2)).reshape(-1, 4).T,)


def _cosine_score(gram) -> float:
    """Mean over rows of the cosine of each pair of rows, from their Gram as `_cosine_sums` lays it out, in ints."""
    values = []
    for norm_sq_p, dot, _, norm_sq_q in zip(*gram):
        if norm_sq_p == 0 or norm_sq_q == 0:
            raise UndefinedSimilarityError("cosine of an all-zero counter vector is undefined")
        values.append(dot / _exact_sqrt(norm_sq_p * norm_sq_q))
    return math.fsum(values) / len(values)


def _cosine_cells(gram) -> np.ndarray:
    """`_cosine_score` of each of many pairs: the Gram holds, per row, a 4 x pairs array."""
    return np.array([_cosine_score(pair) for pair in np.asarray(gram).T.tolist()], dtype=np.float64)


# The one metric table: metric -> (exact oracle, row sums of paired table rows as a tuple of arrays
# with the row axis last, row mean over those sums as ints, cell scorer: the row mean of many pairs
# at once); the named scorers, the grid engine and the CLI all read it.
METRICS = {"dice": (dice, _dice_sums, _dice_score, _dice_cells),
           "cosine": (cosine, _cosine_sums, _cosine_score, _cosine_cells)}


def score(metric: str, p: CounterTable, q: CounterTable, sketch_type: type = CounterTable) -> float:
    """The sketch estimate of `metric` for two comparable counter tables of `sketch_type`."""
    if not isinstance(p, sketch_type) or not isinstance(q, sketch_type):
        raise TypeError(f"expected two {sketch_type.__name__} instances")
    check_witnesses(p.params, q.params)
    _, sums, row_mean, _ = METRICS[metric]
    return row_mean(*[rows.tolist() for rows in sums(p.table, q.table)])  # ints: squared norms multiply past int64


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
