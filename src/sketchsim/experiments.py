"""Evaluation engine: pairwise runs, RMSE grids, threshold classification.

A run sketches both sides of every corpus pair with one shape and seed,
scores the chosen metric, and attaches the exact score as the truth.
The truths come from the run's interned columns, all pairs at once:
each pair's exact sums are array sums of the unclipped counts, scored
by the metric's cell scorer, which equals the scalar oracle bit for bit
for one row. Only a pair with an empty side calls the oracle. A pair
whose truth is undefined is a `PairFailure`, never fatal; its estimate
is undefined exactly when its truth is. Every estimate
equals `metrics.score` of sketches built one pair at a time, bit for
bit, and `run_pairwise` is the one-cell grid of its shape. Metrics come
from the one table `metrics.METRICS`. Runs are deterministic for a fixed
corpus and seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import metrics
from .datasets import Corpus
from .hashing import _probe_positions, digest_rows
from .multiset import Multiset, UndefinedSimilarityError
from .sketches import SketchParams, _clip_counts, _count_rows

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


class _Columns:
    """One run's fixed state, built once from its corpus and lattice and never grown.

    Every pair's sides are interned first. Each pair's truth then comes
    from its exact sums, taken over the interned columns and scored by the
    metric's cell scorer; a pair with an empty side goes to the scalar
    oracle instead, and one whose truth is undefined becomes the oracle's
    own `PairFailure`. `pair_ids`, `truths`, `left` and `right` (each
    pair's profile numbers) cover the scored pairs only: a non-empty
    profile puts mass in every sketch row, so a pair's estimate is
    undefined exactly when its truth is.
    """

    def __init__(self, corpus: Corpus, grid: GridSpec):
        if not corpus:
            raise ValueError("corpus must be non-empty")
        self.grid = grid
        elements, exact = self._intern([profile for _, x, y in corpus for profile in (x, y)])
        truths = self._truths(corpus, grid.metric, exact)
        del exact  # the unclipped counts, not to be held through the digest pass
        scored = [number for number, truth in enumerate(truths) if not isinstance(truth, PairFailure)]
        self.failures = [truth for truth in truths if isinstance(truth, PairFailure)]
        self.pair_ids, self.truths = [corpus[number][0] for number in scored], [truths[number] for number in scored]
        self.left, self.right = self.left[scored], self.right[scored]
        largest = grid.params_for(max(grid.dims), max(grid.depths))
        # per row seed, its (h1,) or (h1, h2) rows, one column per element id
        self._digests = list(zip(*digest_rows(largest.row_seeds, largest.hash_count, elements)))

    def _intern(self, sides: list[Multiset]) -> tuple[list[bytes], np.ndarray]:
        """The profile columns of every pair's sides (two per pair, in order).

        Returns the vocabulary in id order and each entry's count as it is,
        uint64; the columns keep the counts clipped for the sketches.

        A method of its own, so none of its temporaries lives through the
        digest pass, the largest transient of a run.
        """
        index: dict[int, int] = {}  # id(profile) -> profile number, first seen first
        numbers = [index.setdefault(id(profile), len(index)) for profile in sides]
        self.left, self.right = np.array(numbers[0::2], dtype=np.intp), np.array(numbers[1::2], dtype=np.intp)
        self.profiles = list({id(profile): profile for profile in sides}.values())
        entries = [profile._entries for profile in self.profiles]  # element -> positive count
        self._lengths = np.fromiter(map(len, entries), np.intp, len(entries))
        self._offsets = np.concatenate(([0], np.cumsum(self._lengths)))  # profile p owns entries offsets[p]:offsets[p + 1]
        vocabulary: dict[bytes, int] = {}
        ids = (vocabulary.setdefault(e, len(vocabulary)) for profile in entries for e in profile)
        self._element = np.fromiter(ids, np.int64, self._offsets[-1])
        exact = np.fromiter(chain.from_iterable(map(dict.values, entries)), np.uint64, self._offsets[-1])
        self._count = _clip_counts(exact)
        return list(vocabulary), exact

    def _truths(self, corpus: Corpus, metric: str, exact: np.ndarray) -> list[float | PairFailure]:
        """Each pair's exact score, bit for bit the oracle's, or the oracle's `PairFailure` for it, in corpus order.

        Dice takes each pair's sum(min) of the two sides' counts and forms
        sum(max) = |a| + |b| - sum(min); cosine takes the Gram entries: both
        squared norms and the dot product. The sums are uint64 while none can
        reach 2^64 (each is at most the largest cardinality, doubled or
        squared), else Python ints in object arrays. A pair with an empty
        side is the oracle's alone.
        """
        oracle, _, _, score_cells = metrics.METRICS[metric]
        cardinalities = [profile.cardinality() for profile in self.profiles]
        largest = max(cardinalities) ** 2 if metric == "cosine" else 2 * max(cardinalities)
        counts = exact if largest < 2**64 else exact.astype(object)
        empty_side = (self._lengths[self.left] == 0) | (self._lengths[self.right] == 0)
        full = np.flatnonzero(~empty_side)
        left, right = self.left[full], self.right[full]
        if metric == "cosine":
            norms = _segment_sums(counts * counts, self._lengths)
            dots = self._pair_sums(left, right, counts, np.multiply)
            exact = score_cells((np.stack((norms[left], dots, dots, norms[right])),))
        else:
            shared = self._pair_sums(left, right, counts, np.minimum)
            sizes = np.array(cardinalities, dtype=counts.dtype)
            exact = score_cells((shared,), (sizes[left] + sizes[right] - shared,))
        truths: list[float | PairFailure] = [0.0] * len(corpus)
        for number, truth in zip(full.tolist(), exact.tolist()):
            truths[number] = truth
        for number in np.flatnonzero(empty_side).tolist():
            pair_id, x, y = corpus[number]
            try:
                truths[number] = oracle(x, y)
            except UndefinedSimilarityError as exc:
                truths[number] = PairFailure(pair_id, str(exc))
        return truths

    def _pair_sums(self, left: np.ndarray, right: np.ndarray, counts: np.ndarray, combine) -> np.ndarray:
        """Per pair, the sum of combine(left count, right count) over the right profile's entries, in counts' dtype.

        One dense vocabulary buffer holds a left profile's counts (0 for an
        element it lacks): it is filled once per distinct left profile and
        gathered at the entries of that profile's pairs' right profiles.
        """
        element, offsets = self._element, self._offsets
        buffer = np.zeros(int(element.max(initial=-1)) + 1, counts.dtype)
        sums = np.zeros(len(left), counts.dtype)
        order = np.argsort(left, kind="stable")  # the pairs of each left profile, together
        starts = np.flatnonzero(np.diff(left[order], prepend=-1)).tolist()
        for first, last in zip(starts, [*starts[1:], len(order)]):
            pairs = order[first:last]
            own = slice(*offsets[left[pairs[0]] : left[pairs[0]] + 2])
            buffer[element[own]] = counts[own]
            lengths = self._lengths[right[pairs]]
            # each right entry's index: its profile's first entry plus its place in that profile
            entries = np.repeat(offsets[right[pairs]] - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
            sums[pairs] = _segment_sums(combine(buffer[element[entries]], counts[entries]), lengths)
            buffer[element[own]] = 0
        return sums

    def _rows(self, dim: int) -> Iterator[np.ndarray]:
        """Every profile's sketch rows at width `dim`, up to the largest depth, in one reused uint32 buffer.

        A CMS is yielded row by row; a CBF after each probe, so stage i
        is the CBF of i + 1 probes. Each probe's column is computed once
        per vocabulary element and gathered per profile entry.
        """
        offsets, profiles = self._offsets, len(self.profiles)
        hash_count = self.grid.params_for(dim, max(self.grid.depths)).hash_count
        step = max(1, _CHUNK_CELLS // (dim + int(np.diff(offsets).max(initial=0))))
        bounds = [(first, min(first + step, profiles)) for first in range(0, profiles, step)]
        # rows, entries, and the flat index of each entry's row's first cell
        chunks = [(slice(first, last), slice(offsets[first], offsets[last]),
                   np.repeat(np.arange(last - first, dtype=np.int32) * dim, np.diff(offsets[first : last + 1])))
                  for first, last in bounds]
        table = np.empty((profiles, dim), dtype=np.uint32)
        for digests in self._digests:
            table.fill(0)
            for probe in range(hash_count):
                (positions,) = _probe_positions(digests, probe + 1, dim, probe)  # this probe's column of each element
                for rows, entries, firsts in chunks:
                    _count_rows(table[rows], firsts + positions.take(self._element[entries]), self._count[entries])
                yield table

    def _cells(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """(dim, depth, the float64 estimate of each scored pair) of every lattice cell, in lattice order.

        Each dim builds its rows once, up to the largest depth. Each stage a
        cell reads is reduced to the metric's row sums of every pair, chunk by
        chunk, and each cell is scored by the metric's cell scorer, all pairs
        at once; both come from `metrics.METRICS`.
        """
        _, sums, _, score_cells = metrics.METRICS[self.grid.metric]
        left, right, depths = self.left, self.right, dict.fromkeys(self.grid.depths)
        for dim in dict.fromkeys(self.grid.dims):
            step, stages, by_depth = max(1, _CHUNK_CELLS // dim), [], {}
            for depth, table in enumerate(self._rows(dim), 1):
                if self.grid.kind == "cbf" and depth not in depths:
                    continue  # a CBF cell reads only the stage of its own probe count
                # one chunk at least, so a run with no scored pair still has each sum, empty
                chunks = [sums(table[left[i : i + step]], table[right[i : i + step]])
                          for i in range(0, len(left) or 1, step)]
                stage = tuple(np.concatenate(parts, axis=-1) for parts in zip(*chunks))  # each sum, over every pair
                stages = [*stages, stage] if self.grid.kind == "cms" else [stage]
                if depth in depths:
                    by_depth[depth] = stages
            del table  # this dim's buffer, not to be held while the next dim allocates its own
            for depth in depths:
                yield dim, depth, score_cells(*zip(*by_depth[depth]))  # each sum, one entry per row


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sum of each run of `lengths` consecutive entries of `values`, in its dtype; 0 for an empty run."""
    sums = np.zeros(len(lengths), values.dtype)
    filled = lengths > 0
    if filled.any():  # the runs between two filled starts are empty, so each filled run ends at the next start
        sums[filled] = np.add.reduceat(values, (np.cumsum(lengths) - lengths)[filled])
    return sums


def run_pairwise(corpus: Corpus, params: SketchParams, metric: str = "dice") -> PairwiseRun:
    """Compare every corpus pair under one sketch configuration: the one-cell grid of `params`.

    Results are sorted by ground truth ascending (pair id as tiebreaker,
    matching the sorted similarity plots); a pair whose truth is
    undefined (UndefinedSimilarityError) is recorded as a failure, not
    fatal.
    """
    grid = GridSpec(params.kind, [params.width], [params.depth * params.hash_count], metric, params.seed)
    columns = _Columns(corpus, grid)
    ((_, _, estimates),) = columns._cells()
    results = [ComparisonResult(pair_id, truth, estimate, estimate - truth)
               for pair_id, truth, estimate in zip(columns.pair_ids, columns.truths, estimates.tolist())]
    results.sort(key=lambda r: (r.truth, r.pair_id))
    return PairwiseRun(results, columns.failures)


def rmse(results: Sequence[ComparisonResult]) -> float:
    """Root mean square of the signed errors."""
    return _rms([r.error for r in results])


def _rms(errors: Sequence[float] | np.ndarray) -> float:
    """Root mean square by the exactly rounded `math.fsum`, so the order of the errors does not matter."""
    errors = np.asarray(errors, dtype=np.float64)
    if not errors.size:
        raise ValueError("rmse of an empty result list is undefined")
    return math.sqrt(math.fsum((errors * errors).tolist()) / errors.size)


def run_grid(
    corpus: Corpus, grid: GridSpec, failures: list[PairFailure] | None = None
) -> dict[tuple[int, int], float | None]:
    """RMSE per (dim, depth) cell, in lattice order; a cell with no scored pair is None.

    Hashing runs once per element and the exact truths once per pair, for
    the whole lattice. A pair whose truth is undefined fails in every cell;
    when `failures` is given, those pairs are appended to it once.
    """
    columns = _Columns(corpus, grid)
    truths = np.array(columns.truths, dtype=np.float64)
    cells = {(dim, depth): _rms(estimates - truths) if truths.size else None
             for dim, depth, estimates in columns._cells()}
    if failures is not None:
        failures.extend(columns.failures)
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


def _write_csv(destination: str | Path, header: list[str], rows: Iterable[list]) -> None:
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_grid_csv(
    destination: str | Path,
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


def write_threshold_csv(destination: str | Path, report: ThresholdReport) -> None:
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
