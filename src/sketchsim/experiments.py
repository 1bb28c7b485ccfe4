"""Evaluation engine: pairwise runs, RMSE grids, threshold classification.

A run builds both sketches of every corpus pair with identical
parameters and seed, evaluates the chosen metric, and attaches the exact
oracle score as ground truth. Grids reduce each cell of a parameter
lattice to an RMSE. Everything is deterministic for a fixed corpus and
seed. A run holds its corpus in columns (`_Columns`), so it digests each
distinct element once per row seed, asks the oracle about each pair
once, and builds each sketch row of all profiles in one pass, probe by
probe, scoring all pairs from it. A grid builds each width's rows once,
up to its largest depth: CMS rows are shared across depths and CBF
probes accumulated across hash counts.

Metrics are dispatched by the one table `metrics.METRICS` (exact oracle,
row sums, row reducer), which the named scorers and the CLI read too. A
run's sketch shape is a `sketches.SketchParams` of kind "cbf" or "cms"
(a Bloom filter holds no counts to score); a single sketch is built by
`SketchParams.sketch`, that is `from_multiset`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from . import metrics
from .hashing import digest_rows
from .multiset import Multiset, UndefinedSimilarityError
from .sketches import SketchParams, _count_rows, _multiset_arrays

Corpus = Sequence[tuple[str, Multiset, Multiset]]

GRID_COLUMNS = ["dim", "depth", "rmse"]
THRESHOLD_COLUMNS = ["threshold", "tp", "fp", "tn", "fn", "max_overshoot"]

DEFAULT_DIMS = [64, 128, 200, 400, 800]
DEFAULT_DEPTHS = [1, 2, 4, 8, 10]


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
        if self.metric not in metrics.METRICS:
            raise ValueError(f"metric must be {' or '.join(map(repr, metrics.METRICS))}, got {self.metric!r}")
        for dim in self.dims:  # every cell is a valid shape, checked before any corpus work
            for depth in self.depths:
                self.params_for(dim, depth)

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
_DIGEST_CHUNK = 2**13  # vocabulary elements per digest call (over all missing row seeds); bounds hashing memory


class _Columns:
    """A run's corpus in columns, built once from that corpus and never grown.

    Each distinct profile object is interned once, as CSR-style arrays:
    the ids of its elements in one bytes -> id vocabulary and its counts
    clipped by `_multiset_arrays`; `left` and `right` hold the profile
    numbers of each pair's sides. Digests are memoised per row seed over
    the vocabulary and exact truths per pair and metric.
    """

    def __init__(self, corpus: Corpus):
        self.pair_ids = [pair_id for pair_id, _, _ in corpus]
        sides = [profile for _, x, y in corpus for profile in (x, y)]
        index: dict[int, int] = {}  # id(profile) -> profile number, first seen first
        numbers = [index.setdefault(id(profile), len(index)) for profile in sides]
        self.left, self.right = np.array(numbers[0::2]), np.array(numbers[1::2])
        self.profiles = list({id(profile): profile for profile in sides}.values())
        arrays = [_multiset_arrays(profile) for profile in self.profiles]
        lengths = [len(counts) for _, counts in arrays]
        vocabulary: dict[bytes, int] = {}
        ids = (vocabulary.setdefault(e, len(vocabulary)) for elements, _ in arrays for e in elements)
        self._element = np.fromiter(ids, np.int64, sum(lengths))
        self._count = np.concatenate([counts for _, counts in arrays])
        self._offsets = list(accumulate(lengths, initial=0))  # profile p owns entries offsets[p]:offsets[p + 1]
        self._vocabulary = list(vocabulary)
        self._digests: dict[int, np.ndarray] = {}  # row seed -> [h1] or [h1, h2] rows, one column per element id
        self._truths: dict[tuple[str, int, int], float] = {}  # (metric, left, right) -> exact score

    def _vocabulary_digests(self, params: SketchParams) -> list[np.ndarray]:
        """Each row's `digest_rows` over the vocabulary, memoised per row seed; missing seeds are digested together."""
        kinds = min(params.hash_count, 2)  # h1 alone, or h1 and h2
        missing = [seed for seed in params.row_seeds if len(self._digests.get(seed, ())) < kinds]
        if missing:
            digests = np.empty((kinds, len(missing), len(self._vocabulary)), dtype=np.uint64)
            for first in range(0, len(self._vocabulary), _DIGEST_CHUNK):
                chunk = self._vocabulary[first : first + _DIGEST_CHUNK]
                digests[:, :, first : first + len(chunk)] = digest_rows(missing, params.hash_count, chunk)
            self._digests.update(zip(missing, digests.swapaxes(0, 1)))
        return [self._digests[seed] for seed in params.row_seeds]

    def _truth(self, metric: str, left: int, right: int) -> float:
        """The exact score of a pair of profiles, from one oracle call (an undefined one raises each time)."""
        key = (metric, left, right)
        if key not in self._truths:
            oracle, _, _ = metrics.METRICS[metric]
            self._truths[key] = oracle(self.profiles[left], self.profiles[right])
        return self._truths[key]

    def _rows(self, params: SketchParams) -> Iterator[np.ndarray]:
        """Each sketch row of every profile in one reused (profiles x width) uint32 buffer, yielded after each probe."""
        offsets, profiles = self._offsets, len(self.profiles)
        step = max(1, _CHUNK_CELLS // (params.width + int(np.diff(offsets).max())))
        table = np.empty((profiles, params.width), dtype=np.uint32)
        for digests in self._vocabulary_digests(params):
            table.fill(0)
            for probe in range(params.hash_count):
                for first in range(0, profiles, step):
                    last = min(first + step, profiles)
                    entries = slice(offsets[first], offsets[last])
                    owners = np.repeat(np.arange(last - first), np.diff(offsets[first : last + 1]))
                    table[first:last] = _count_rows(table[first:last], digests.take(self._element[entries], axis=1),
                                                    owners, self._count[entries], probe + 1, probe)
                yield table

    def _pair_sums(self, table: np.ndarray, sums) -> list[list]:
        """The metric's row sums (`sums` of `metrics.METRICS`) of every pair, from one row of every profile."""
        left, right, step = self.left, self.right, max(1, _CHUNK_CELLS // table.shape[1])
        chunks = [sums(table[left[i : i + step]], table[right[i : i + step]]) for i in range(0, len(left), step)]
        return [list(chain.from_iterable(parts)) for parts in zip(*chunks)]

    def _depth_sums(self, params: SketchParams, metric: str, depths: Iterable[int]) -> dict[int, list[list]]:
        """Per depth (k of a CBF, d of a CMS, up to the shape's), the row sums of its rows, from one pass of `_rows`."""
        _, sums, _ = metrics.METRICS[metric]
        wanted, rows, by_depth = set(depths), [], {}
        for depth, table in enumerate(self._rows(params), 1):
            if params.kind == "cms":
                rows.append(self._pair_sums(table, sums))
                if depth in wanted:
                    by_depth[depth] = rows[:depth]
            elif depth in wanted:
                by_depth[depth] = [self._pair_sums(table, sums)]
        return by_depth

    def _scored(self, metric: str, row_sums: list[list], failures: list[PairFailure]) -> Iterator[tuple[str, float, float]]:
        """(pair id, truth, estimate) of each pair, from its row sums; a pair that raises goes to `failures`."""
        _, _, score = metrics.METRICS[metric]
        pair_sums = zip(*(zip(*rows) for rows in zip(*row_sums)))  # per pair, each sum over the sketch rows
        for pair_id, x, y, pair in zip(self.pair_ids, self.left.tolist(), self.right.tolist(), pair_sums):
            try:
                truth = self._truth(metric, x, y)
                estimate = score(*pair)
            except UndefinedSimilarityError as exc:
                failures.append(PairFailure(pair_id, str(exc)))
                continue
            yield pair_id, truth, estimate


def run_pairwise(corpus: Corpus, params: SketchParams, metric: str = "dice") -> PairwiseRun:
    """Compare every corpus pair under one sketch configuration.

    Results are sorted by ground truth ascending (pair id as tiebreaker,
    matching the sorted similarity plots); a pair whose truth or
    estimate is undefined (UndefinedSimilarityError) is recorded as a
    failure, not fatal.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    return _run_pairwise(_Columns(corpus), params, metric)


def _run_pairwise(columns: _Columns, params: SketchParams, metric: str) -> PairwiseRun:
    if metric not in metrics.METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if params.kind == "bf":
        raise ValueError("a Bloom filter holds no counts to score; use kind 'cbf' or 'cms'")
    failures: list[PairFailure] = []
    (row_sums,) = columns._depth_sums(params, metric, [params.depth * params.hash_count]).values()  # one of them is 1
    results = [ComparisonResult(*scored, scored[2] - scored[1]) for scored in columns._scored(metric, row_sums, failures)]
    results.sort(key=lambda r: (r.truth, r.pair_id))
    return PairwiseRun(results, failures)


def rmse(results: Sequence[ComparisonResult]) -> float:
    """Root mean square of the signed errors."""
    return _rms([r.error for r in results])


def _rms(errors: Sequence[float]) -> float:
    """Root mean square by the exactly rounded `math.fsum`, so the order of the errors does not matter."""
    if not errors:
        raise ValueError("rmse of an empty result list is undefined")
    return math.sqrt(math.fsum(e * e for e in errors) / len(errors))


def run_grid(
    corpus: Corpus, grid: GridSpec, failures: list[PairFailure] | None = None
) -> dict[tuple[int, int], float | None]:
    """RMSE per (dim, depth) cell; a cell whose run wholly fails is None.

    Cells are evaluated in lattice order over one columnar corpus, so
    hashing and the exact oracle run once per element and pair. Each dim
    builds its rows once, up to the largest depth: CMS rows are shared
    across depths, and a CBF's probes are accumulated across hash counts.
    A cell goes straight to its RMSE (`_rms`), with no results to sort.
    A non-empty profile puts mass in every sketch row, so a pair fails in
    every cell or in none; when `failures` is given, the pairs that
    failed are appended to it once.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    columns = _Columns(corpus)
    cells: dict[tuple[int, int], float | None] = {}
    for dim in grid.dims:
        by_depth = columns._depth_sums(grid.params_for(dim, max(grid.depths)), grid.metric, grid.depths)
        for depth in dict.fromkeys(grid.depths):
            cell_failures: list[PairFailure] = []
            errors = [est - truth for _, truth, est in columns._scored(grid.metric, by_depth[depth], cell_failures)]
            cells[(dim, depth)] = _rms(errors) if errors else None
    if failures is not None:
        failures.extend(cell_failures)
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
