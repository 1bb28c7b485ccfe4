"""Evaluation engine: pairwise runs, RMSE grids, threshold classification.

A run builds both sketches of every corpus pair with identical
parameters and seed, evaluates the chosen metric, and attaches the exact
oracle score as ground truth. Grids repeat that over a parameter lattice
and reduce each cell to an RMSE. Everything is deterministic for a fixed
corpus and seed; digests are cached per multiset so a sweep costs one
digest pass plus cheap modular arithmetic per cell.

`_ESTIMATE_FNS` and `_TRUTH_FNS` are the package's only metric dispatch
tables and `_BuildCache.build` its only SketchParams -> sketch dispatch;
the CLI uses all three.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

from . import metrics
from .hashing import derive_row_seed
from .multiset import Multiset, UndefinedSimilarityError, cosine, dice
from .sketches import COUNTER_TYPES, CounterTable, _multiset_arrays, _row_digests

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


class _BuildCache:
    """Per-run digest memo: one digest pass per multiset and row seed, reused across grid cells."""

    def __init__(self, seed: int):
        self.seed = seed
        self._entries: dict[int, dict] = {}

    def _entry(self, multiset: Multiset) -> dict:
        entry = self._entries.get(id(multiset))
        if entry is None or entry["ms"] is not multiset:
            elements, counts = _multiset_arrays(multiset)
            entry = {
                "ms": multiset,  # keep a reference so id() stays valid
                "elements": elements,
                "counts": counts,
                "rows": {},  # row seed -> (h1,), or (h1, h2) once a cell probes twice
            }
            self._entries[id(multiset)] = entry
        return entry

    def build(self, multiset: Multiset, params: SketchParams) -> CounterTable:
        entry = self._entry(multiset)
        rows = entry["rows"]
        row_digests = []
        for row in range(params.depth):
            row_seed = derive_row_seed(self.seed, row)
            digests = rows.get(row_seed)
            if digests is None or len(digests) < min(params.hash_count, 2):
                digests = rows[row_seed] = _row_digests(row_seed, entry["elements"], params.hash_count)
            row_digests.append(digests)
        sketch = COUNTER_TYPES[params.kind].from_row_digests(
            row_digests,
            entry["counts"],
            width=params.width,
            depth=params.depth,
            hash_count=params.hash_count,
            seed=self.seed,
        )
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
    try:
        truth_fn = _TRUTH_FNS[metric]
        estimate_fn = _ESTIMATE_FNS[(params.kind, metric)]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}") from None
    results = []
    failures = []
    for pair_id, left, right in corpus:
        try:
            truth = truth_fn(left, right)
            estimate = estimate_fn(cache.build(left, params), cache.build(right, params))
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


def run_grid(corpus: Corpus, grid: GridSpec) -> dict[tuple[int, int], float | None]:
    """RMSE per (dim, depth) cell; a cell whose run wholly fails is None.

    Cells are independent and evaluated sequentially in lattice order;
    the digest cache is shared, so corpus hashing happens once.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    cache = _BuildCache(grid.seed)
    cells: dict[tuple[int, int], float | None] = {}
    for dim in grid.dims:
        for depth in grid.depths:
            run = _run_pairwise(corpus, grid.params_for(dim, depth), grid.metric, cache)
            cells[(dim, depth)] = rmse(run.results) if run.results else None
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
