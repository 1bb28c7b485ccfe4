"""Evaluation engine: pairwise runs, RMSE grids, threshold classification.

A run builds both sketches of every corpus pair with identical
parameters and seed, evaluates the chosen metric, and attaches the exact
oracle score as ground truth. Grids repeat that over a parameter lattice
and reduce each cell to an RMSE. Everything is deterministic for a fixed
corpus and seed. A run holds its corpus in columns (`_BuildCache`), so a
sweep digests each distinct element once per row seed, asks the oracle
about each pair once, builds each sketch row of all profiles in one pass
and scores all pairs from that row with the `metrics` row reducers.

`_ESTIMATE_FNS` and `_TRUTH_FNS` are the package's only metric dispatch
tables and `_BuildCache.build` its only SketchParams -> sketch dispatch;
the CLI uses all three.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import metrics
from .hashing import derive_row_seed
from .multiset import Multiset, UndefinedSimilarityError, cosine, dice
from .sketches import COUNTER_TYPES, CounterTable, _count_rows, _multiset_arrays, _row_digests

Corpus = Sequence[tuple[str, Multiset, Multiset]]

COMPARISON_COLUMNS = ["pair_id", "truth", "estimate", "error"]
GRID_COLUMNS = ["dim", "depth", "rmse"]
THRESHOLD_COLUMNS = ["threshold", "tp", "fp", "tn", "fn", "max_overshoot"]

DEFAULT_DIMS = [64, 128, 200, 400, 800]
DEFAULT_DEPTHS = [1, 2, 4, 8, 10]


@dataclass(frozen=True)
class SketchParams:
    """One sketch configuration: kind "cbf" (length/hash_count) or "cms" (width/depth)."""

    kind: str
    width: int
    depth: int = 1
    hash_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("cbf", "cms"):
            raise ValueError(f"kind must be 'cbf' or 'cms', got {self.kind!r}")
        if self.width < 1 or self.depth < 1 or self.hash_count < 1:
            raise ValueError("width, depth and hash_count must all be >= 1")
        if self.kind == "cbf" and self.depth != 1:
            raise ValueError("a CBF has depth 1; use hash_count for k")
        if self.kind == "cms" and self.hash_count != 1:
            raise ValueError("a CMS has one hash function per row; use depth for d")


@dataclass(frozen=True)
class GridSpec:
    """Parameter lattice: dims are lengths/widths, depths are k (CBF) or d (CMS)."""

    kind: str
    dims: Sequence[int] = field(default_factory=lambda: list(DEFAULT_DIMS))
    depths: Sequence[int] = field(default_factory=lambda: list(DEFAULT_DEPTHS))
    metric: str = "dice"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("cbf", "cms"):
            raise ValueError(f"kind must be 'cbf' or 'cms', got {self.kind!r}")
        if not self.dims or not self.depths:
            raise ValueError("dims and depths must be non-empty")
        if any(v < 1 for v in self.dims) or any(v < 1 for v in self.depths):
            raise ValueError("all grid dimensions must be >= 1")
        if self.metric not in ("dice", "cosine"):
            raise ValueError(f"metric must be 'dice' or 'cosine', got {self.metric!r}")

    def params_for(self, dim: int, depth: int) -> SketchParams:
        if self.kind == "cbf":
            return SketchParams("cbf", dim, hash_count=depth, seed=self.seed)
        return SketchParams("cms", dim, depth=depth, seed=self.seed)


@dataclass(frozen=True)
class ComparisonResult:
    pair_id: str
    truth: float
    estimate: float
    error: float  # estimate - truth; >= 0 for Dice metrics


@dataclass(frozen=True)
class PairFailure:
    pair_id: str
    reason: str


@dataclass(frozen=True)
class PairwiseRun:
    results: list[ComparisonResult]
    failures: list[PairFailure]


@dataclass(frozen=True)
class ThresholdReport:
    """Classification counts at a relevance threshold.

    Predicted positive means estimate >= threshold, actually positive
    means truth >= threshold. max_overshoot is the largest truth deficit
    (threshold - truth) among false positives, 0.0 if there are none.
    """

    threshold: float
    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int
    max_overshoot: float


_CHUNK_CELLS = 2**15  # counters and probes per accumulation or gather step; bounds a cell's working memory
_DIGEST_CHUNK = 2**13  # vocabulary elements per digest call; bounds the memory hashing takes


class _BuildCache:
    """Per-run columnar corpus, shared by every cell of a run.

    Each distinct profile object is interned once, as CSR-style arrays:
    the ids of its elements in one bytes -> id vocabulary and its counts
    clipped by `_multiset_arrays`. Digests are memoised per row seed over
    the vocabulary and exact truths per pair and metric. `_rows` builds a
    sketch row of many profiles at once; `build` is the one-profile case.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._index: dict[int, int] = {}  # id(profile) -> profile number
        self._profiles: list[Multiset] = []  # keeps every interned profile alive, so ids stay unique
        self._vocabulary: dict[bytes, int] = {}
        self._element = self._count = np.zeros(0, dtype=np.int64)
        self._offsets = [0]  # profile p owns entries offsets[p]:offsets[p + 1]
        self._digests: dict[int, tuple[np.ndarray, ...]] = {}  # row seed -> (h1,) or (h1, h2) per element id
        self._truths: dict[tuple[str, int, int], float] = {}  # (metric, left, right) -> exact score

    def _intern(self, multisets: Iterable[Multiset]) -> list[int]:
        """The profile number of each multiset, interning the ones not seen before."""
        numbers, new = [], []
        for multiset in multisets:
            if id(multiset) not in self._index:
                self._index[id(multiset)] = len(self._profiles)
                self._profiles.append(multiset)
                new.append(_multiset_arrays(multiset))
            numbers.append(self._index[id(multiset)])
        if new:
            vocabulary = self._vocabulary
            ids = (vocabulary.setdefault(e, len(vocabulary)) for elements, _ in new for e in elements)
            lengths = [len(counts) for _, counts in new]
            self._element = np.concatenate([self._element, np.fromiter(ids, np.int64, sum(lengths))])
            self._count = np.concatenate([self._count, *(counts for _, counts in new)])
            self._offsets += list(accumulate(lengths, initial=self._offsets[-1]))[1:]
        return numbers

    def _vocabulary_digests(self, row_seed: int, hash_count: int) -> tuple[np.ndarray, ...]:
        """`_row_digests` of every vocabulary element under a row seed."""
        digests = self._digests.get(row_seed)
        if not digests or len(digests[0]) < len(self._vocabulary) or len(digests) < min(hash_count, 2):
            elements = list(self._vocabulary)
            parts = [_row_digests(row_seed, elements[i : i + _DIGEST_CHUNK], hash_count)
                     for i in range(0, len(elements), _DIGEST_CHUNK)]
            digests = self._digests[row_seed] = tuple(np.concatenate(column) for column in zip(*parts))
        return digests

    def _truth(self, metric: str, left: int, right: int) -> float:
        """The exact score of a pair of interned profiles, from one oracle call (an undefined one raises each time)."""
        key = (metric, left, right)
        if key not in self._truths:
            self._truths[key] = _TRUTH_FNS[metric](self._profiles[left], self._profiles[right])
        return self._truths[key]

    def _rows(self, profiles: range, params: SketchParams) -> Iterator[tuple[np.ndarray, bool]]:
        """Each sketch row of the profiles in turn, in one (profiles x width) uint32 buffer, and its saturation."""
        offsets = self._offsets
        longest = int(np.diff(offsets[profiles.start : profiles.stop + 1]).max())
        step = max(1, _CHUNK_CELLS // (params.width + params.hash_count * longest))
        table = np.empty((len(profiles), params.width), dtype=np.uint32)
        for row in range(params.depth):
            digests = self._vocabulary_digests(derive_row_seed(self.seed, row), params.hash_count)
            saturated = False
            for first in range(profiles.start, profiles.stop, step):
                last = min(first + step, profiles.stop)
                entries = slice(offsets[first], offsets[last])
                owners = np.repeat(np.arange(last - first), np.diff(offsets[first : last + 1]))
                part, part_saturated = _count_rows(tuple(d[self._element[entries]] for d in digests), owners,
                                                   self._count[entries], last - first, params.width, params.hash_count)
                table[first - profiles.start : last - profiles.start] = part
                saturated = saturated or part_saturated
            yield table, saturated

    def build(self, multiset: Multiset, params: SketchParams) -> CounterTable:
        sketch = COUNTER_TYPES[params.kind]._shaped(params.width, params.depth, params.hash_count, self.seed)
        (number,) = self._intern([multiset])
        for row, (table, saturated) in enumerate(self._rows(range(number, number + 1), params)):
            sketch.table[row] = table[0]
            sketch.saturated = sketch.saturated or saturated
        sketch.total_insertions = multiset.cardinality()
        return sketch


_TRUTH_FNS: dict[str, Callable[[Multiset, Multiset], float]] = {"dice": dice, "cosine": cosine}
_ESTIMATE_FNS = {
    ("cbf", "dice"): metrics.cbf_dice,
    ("cbf", "cosine"): metrics.cbf_cosine,
    ("cms", "dice"): metrics.cms_dice,
    ("cms", "cosine"): metrics.cms_cosine,
}


def run_pairwise(corpus: Corpus, params: SketchParams, metric: str = "dice") -> PairwiseRun:
    """Compare every corpus pair under one sketch configuration.

    Results are sorted by ground truth ascending (pair id as tiebreaker,
    matching the sorted similarity plots); a pair whose truth or
    estimate is undefined (UndefinedSimilarityError) is recorded as a
    failure, not fatal.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    return _run_pairwise(corpus, params, metric, _BuildCache(params.seed))


def _run_pairwise(corpus: Corpus, params: SketchParams, metric: str, cache: _BuildCache) -> PairwiseRun:
    if metric not in _TRUTH_FNS:
        raise ValueError(f"unknown metric {metric!r}")
    sums, score = metrics._ROW_SCORERS[metric]
    numbers = cache._intern(profile for _, x, y in corpus for profile in (x, y))
    lowest = min(numbers)  # rows cover profiles lowest..max(numbers), which is all of a run's own cache
    left, right = np.array(numbers[0::2]) - lowest, np.array(numbers[1::2]) - lowest
    step = max(1, _CHUNK_CELLS // params.width)
    row_sums = []  # per sketch row, the metric's row sums of every pair
    for table, _ in cache._rows(range(lowest, max(numbers) + 1), params):
        chunks = [sums(table[left[i : i + step]], table[right[i : i + step]]) for i in range(0, len(corpus), step)]
        row_sums.append([list(chain.from_iterable(parts)) for parts in zip(*chunks)])
    pair_sums = zip(*(zip(*rows) for rows in zip(*row_sums)))  # per pair, each sum over the sketch rows
    results, failures = [], []
    for (pair_id, _, _), x, y, pair in zip(corpus, numbers[0::2], numbers[1::2], pair_sums):
        try:
            truth = cache._truth(metric, x, y)
            estimate = score(*pair)
        except UndefinedSimilarityError as exc:
            failures.append(PairFailure(pair_id, str(exc)))
            continue
        results.append(ComparisonResult(pair_id, truth, estimate, estimate - truth))
    results.sort(key=lambda r: (r.truth, r.pair_id))
    return PairwiseRun(results, failures)


def rmse(results: Sequence[ComparisonResult]) -> float:
    """Root mean square of the signed errors."""
    if not results:
        raise ValueError("rmse of an empty result list is undefined")
    return math.sqrt(math.fsum(r.error * r.error for r in results) / len(results))


def run_grid(
    corpus: Corpus, grid: GridSpec, failures: list[PairFailure] | None = None
) -> dict[tuple[int, int], float | None]:
    """RMSE per (dim, depth) cell; a cell whose run wholly fails is None.

    Cells are evaluated sequentially in lattice order over one columnar
    corpus, so hashing and the exact oracle run once per element and
    pair. A non-empty profile puts mass in every sketch row, so a pair
    fails in every cell or in none; when `failures` is given, the pairs
    that failed are appended to it once.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    cache = _BuildCache(grid.seed)
    cells: dict[tuple[int, int], float | None] = {}
    for dim in grid.dims:
        for depth in grid.depths:
            run = _run_pairwise(corpus, grid.params_for(dim, depth), grid.metric, cache)
            cells[(dim, depth)] = rmse(run.results) if run.results else None
    if failures is not None:
        failures.extend(run.failures)
    return cells


def threshold_report(results: Sequence[ComparisonResult], threshold: float) -> ThresholdReport:
    """Classify results at a relevance threshold in (0, 1)."""
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    tp = fp = tn = fn = 0
    max_overshoot = 0.0
    for result in results:
        predicted = result.estimate >= threshold
        actual = result.truth >= threshold
        if predicted and actual:
            tp += 1
        elif predicted:
            fp += 1
            max_overshoot = max(max_overshoot, threshold - result.truth)
        elif actual:
            fn += 1
        else:
            tn += 1
    return ThresholdReport(threshold, tp, fp, tn, fn, max_overshoot)


def _write_csv(destination: str | Path | IO[str], header: list[str], rows: Iterable[list]) -> None:
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            _write_csv(handle, header, rows)
        return
    writer = csv.writer(destination)
    writer.writerow(header)
    writer.writerows(rows)


def write_comparisons_csv(destination: str | Path | IO[str], results: Sequence[ComparisonResult]) -> None:
    """Columns: pair_id, truth, estimate, error."""
    rows = ([r.pair_id, repr(r.truth), repr(r.estimate), repr(r.error)] for r in results)
    _write_csv(destination, COMPARISON_COLUMNS, rows)


def write_grid_csv(
    destination: str | Path | IO[str],
    cells: dict[tuple[int, int], float | None],
    grid: GridSpec,
) -> None:
    """Columns: dim, depth, rmse. Failed cells keep their row with an empty rmse."""
    rows = (
        [dim, depth, "" if cells.get((dim, depth)) is None else repr(cells[(dim, depth)])]
        for dim in grid.dims
        for depth in grid.depths
    )
    _write_csv(destination, GRID_COLUMNS, rows)


def write_threshold_csv(destination: str | Path | IO[str], report: ThresholdReport) -> None:
    """Columns: threshold, tp, fp, tn, fn, max_overshoot."""
    row = [
        repr(report.threshold),
        report.true_positives,
        report.false_positives,
        report.true_negatives,
        report.false_negatives,
        repr(report.max_overshoot),
    ]
    _write_csv(destination, THRESHOLD_COLUMNS, [row])
