import math
import tracemalloc

import numpy as np
import pytest

from sketchsim import (
    COUNTER_MAX,
    ComparisonResult,
    CountingBloomFilter,
    CountMinSketch,
    GridSpec,
    Multiset,
    SketchParams,
    cbf_cosine,
    cbf_dice,
    cms_cosine,
    cms_dice,
    cosine,
    dice,
    rmse,
    run_grid,
    run_pairwise,
    threshold_report,
    write_grid_csv,
    write_threshold_csv,
)
from sketchsim.experiments import _Columns
from sketchsim.metrics import METRICS
from sketchsim.sketches import SKETCH_KINDS


def _result(pair_id, truth, estimate):
    return ComparisonResult(pair_id, truth, estimate, estimate - truth)


def _reference_run(corpus, params, metric):
    """run_pairwise built pair by pair from from_multiset and the public scorers."""
    shape = (params.hash_count,) if params.kind == "cbf" else (params.depth,)
    score = {"dice": {"cbf": cbf_dice, "cms": cms_dice}, "cosine": {"cbf": cbf_cosine, "cms": cms_cosine}}
    truth_fn = {"dice": dice, "cosine": cosine}[metric]
    results = []
    for pair_id, x, y in corpus:
        p, q = (SKETCH_KINDS[params.kind].from_multiset(m, params.width, *shape, params.seed) for m in (x, y))
        truth, estimate = truth_fn(x, y), score[metric][params.kind](p, q)
        results.append(ComparisonResult(pair_id, truth, estimate, estimate - truth))
    return sorted(results, key=lambda r: (r.truth, r.pair_id))


class TestRunPairwise:
    def test_identical_pair(self):
        m = Multiset({"a": 3, "b": 2})
        run = run_pairwise([("p0", m, m)], SketchParams("cbf", 64), "dice")
        (result,) = run.results
        assert result.truth == 1.0
        assert result.estimate == 1.0
        assert result.error == 0.0
        assert not run.failures

    def test_disjoint_pair_huge_table_has_tiny_error(self):
        x = Multiset({f"x{i}": 1 for i in range(60)})
        y = Multiset({f"y{i}": 1 for i in range(60)})
        run = run_pairwise([("p0", x, y)], SketchParams("cbf", 2**16, seed=1), "dice")
        assert run.results[0].truth == 0.0
        assert run.results[0].error < 0.01

    def test_results_sorted_by_truth_then_id(self, sd_corpus):
        run = run_pairwise(sd_corpus[:50], SketchParams("cbf", 128), "dice")
        keys = [(r.truth, r.pair_id) for r in run.results]
        assert keys == sorted(keys)

    def test_cms_dice_overestimates_on_sd_sample(self, sd_corpus):
        run = run_pairwise(sd_corpus[::50], SketchParams("cms", 400, depth=10), "dice")
        assert all(r.error >= 0 for r in run.results)

    def test_failing_pair_recorded_not_fatal(self):
        good = Multiset({"a": 1})
        run = run_pairwise(
            [("bad", Multiset(), Multiset()), ("ok", good, good)],
            SketchParams("cbf", 16),
            "dice",
        )
        assert [r.pair_id for r in run.results] == ["ok"]
        assert [f.pair_id for f in run.failures] == ["bad"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            run_pairwise([], SketchParams("cbf", 16), "dice")

    def test_unknown_metric_rejected(self):
        m = Multiset({"a": 1})
        with pytest.raises(ValueError):
            run_pairwise([("p", m, m)], SketchParams("cbf", 16), "jaccard")

    def test_cosine_metric_uses_cosine_truth(self):
        x = Multiset({"a": 2, "b": 1})
        y = Multiset({"a": 1, "b": 2})
        run = run_pairwise([("p", x, y)], SketchParams("cbf", 2**14, seed=3), "cosine")
        from sketchsim import cosine

        assert run.results[0].truth == cosine(x, y)


def test_engine_rows_equal_from_multiset():
    """One run's columns give every profile, under every shape, the table of from_multiset.

    A CMS is yielded row by row; a CBF of k probes after each probe, so
    stage i is the CBF of i + 1 probes.
    """
    x = Multiset({"a": 3, "b": 1})
    y = Multiset({"b": 2, "c": 5, "d": 1})
    z = Multiset({"e": 2**33, "a": 1})  # saturates
    for kind, width, shape in [("cbf", 8, 1), ("cms", 5, 3), ("cbf", 16, 3), ("cms", 4, 2), ("cbf", 8, 2)]:
        columns = _Columns([("xy", x, y), ("zx", z, x)], GridSpec(kind, [width], [shape], seed=3))
        assert [id(p) for p in columns.profiles] == [id(x), id(y), id(z)]
        assert (columns.left.tolist(), columns.right.tolist()) == ([0, 2], [1, 0])
        stages = np.stack([table.copy() for table in columns._rows(width)], axis=1)  # profile x stage x width
        for profile, tables in zip(columns.profiles, stages):
            if kind == "cms":
                assert np.array_equal(tables, CountMinSketch.from_multiset(profile, width, shape, 3).table)
            for probes, table in enumerate(tables if kind == "cbf" else (), 1):
                assert np.array_equal(table, CountingBloomFilter.from_multiset(profile, width, probes, 3).counters)


def test_engine_rows_saturate_when_a_later_probe_passes_the_maximum():
    """A cell that passes COUNTER_MAX only at the second probe clamps there, as from_multiset's does."""
    hot = Multiset({"h": 2**31, "a": 1})  # width 1: every probe adds 2^31 + 1 to the one cell
    stages = [table[0].tolist() for table in _Columns([("hh", hot, hot)], GridSpec("cbf", [1], [3]))._rows(1)]
    assert stages == [CountingBloomFilter.from_multiset(hot, 1, probes).counters.tolist() for probes in (1, 2, 3)]
    assert stages[1:] == [[COUNTER_MAX]] * 2


class TestRmse:
    def test_all_zero(self):
        assert rmse([_result("a", 1.0, 1.0)] * 3) == 0.0

    def test_constant_error(self):
        results = [_result("a", 0.0, 0.1), _result("b", 0.5, 0.6)]
        assert rmse(results) == pytest.approx(0.1, abs=1e-15)

    def test_mixed_errors(self):
        results = [_result("a", 0.0, 0.0), _result("b", 0.0, 0.2)]
        assert rmse(results) == pytest.approx(math.sqrt(0.02), abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([])


class TestRunGrid:
    @pytest.mark.parametrize("metric", ["dice", "cosine"])
    @pytest.mark.parametrize("kind", ["cbf", "cms"])
    def test_cells_equal_per_pair_reference(self, sd_corpus, kind, metric):
        shared = Multiset({"hot": 2**32 + 5, "cold": 3, "warm": 1})  # one cell saturates
        corpus = list(sd_corpus[::100]) + [
            ("same-object", shared, shared),
            ("shared-a", shared, sd_corpus[3][2]),
            ("shared-b", sd_corpus[5][2], shared),
        ]
        grid = GridSpec(kind, dims=[1, 16, 128], depths=[1, 2, 3], metric=metric, seed=4)
        cells = run_grid(corpus, grid)
        expected = {}
        for dim in grid.dims:
            for depth in grid.depths:
                params = grid.params_for(dim, depth)
                reference = _reference_run(corpus, params, metric)
                run = run_pairwise(corpus, params, metric)
                assert run.results == reference and not run.failures
                expected[(dim, depth)] = rmse(reference)
        assert cells == expected

    @pytest.mark.parametrize("depths", [[3, 1, 2], [10, 4, 4]])
    @pytest.mark.parametrize("metric", ["dice", "cosine"])
    @pytest.mark.parametrize("kind", ["cbf", "cms"])
    def test_unsorted_and_repeated_depths_equal_per_cell_reference(self, sd_corpus, kind, metric, depths):
        # rows shared across depths and probes accumulated across hash counts give every cell its own value
        hot, warm = Multiset({"hot": 2**32 + 5, "cold": 3}), Multiset({"hot": 2**31, "warm": 1})  # saturate cells
        corpus = list(sd_corpus[::250]) + [("hot-hot", hot, hot), ("hot-warm", hot, warm),
                                           ("warm-sd", warm, sd_corpus[3][2])]
        grid = GridSpec(kind, dims=[1, 16, 128], depths=depths, metric=metric, seed=4)
        expected = {(dim, depth): rmse(_reference_run(corpus, grid.params_for(dim, depth), metric))
                    for dim in grid.dims for depth in grid.depths}
        cells = run_grid(corpus, grid)
        assert cells == expected and list(cells) == list(expected)

    def test_grid_memory_is_bounded(self, sd_corpus):
        for kind in ("cms", "cbf"):
            tracemalloc.start()
            try:
                run_grid(sd_corpus, GridSpec(kind, dims=[800], depths=[10]))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 2**20, f"{kind} peak {peak / 2**20:.1f} MiB"

    def test_deterministic(self, sd_corpus):
        sample = sd_corpus[::100]
        grid = GridSpec("cms", dims=[64, 128], depths=[1, 4], seed=9)
        assert run_grid(sample, grid) == run_grid(sample, grid)

    def test_length_helps_hashes_hurt(self, sd_corpus):
        sample = sd_corpus[::10]
        cells = run_grid(sample, GridSpec("cbf", dims=[64, 512], depths=[1, 4], seed=0))
        assert cells[(512, 1)] < cells[(64, 1)]
        assert cells[(64, 4)] >= cells[(64, 1)]

    def test_all_failing_cell_is_none(self):
        corpus = [("bad", Multiset(), Multiset())]
        for kind in ("cbf", "cms"):
            for metric in METRICS:
                cells = run_grid(corpus, GridSpec(kind, dims=[16, 32], depths=[1, 2], metric=metric))
                assert cells == {(16, 1): None, (16, 2): None, (32, 1): None, (32, 2): None}

    def test_failures_reported_once(self):
        ok = Multiset({"a": 1})
        corpus = [("ok", ok, ok), ("bad", Multiset(), ok), ("worse", Multiset(), Multiset())]
        failures = []
        cells = run_grid(corpus, GridSpec("cbf", dims=[8, 16], depths=[1, 2], metric="cosine"), failures)
        assert set(cells.values()) == {0.0}
        assert failures == run_pairwise(corpus, SketchParams("cbf", 8), "cosine").failures
        assert [f.pair_id for f in failures] == ["bad", "worse"]


class TestThresholdReport:
    def test_identical_pairs_no_false_positives(self):
        results = [_result(f"p{i}", 1.0, 1.0) for i in range(5)]
        report = threshold_report(results, 0.6)
        assert report.false_positives == 0
        assert report.true_positives == 5
        assert report.max_overshoot == 0.0

    def test_overestimation_implies_no_false_negatives(self, sd_corpus):
        run = run_pairwise(sd_corpus[::20], SketchParams("cbf", 128), "dice")
        report = threshold_report(run.results, 0.6)
        assert report.false_negatives == 0

    def test_counts_and_overshoot(self):
        results = [
            _result("tn", 0.1, 0.2),
            _result("fp1", 0.5, 0.7),
            _result("fp2", 0.45, 0.6),
            _result("tp", 0.8, 0.9),
            _result("fn", 0.7, 0.5),  # cannot happen for Dice, still classified
        ]
        report = threshold_report(results, 0.6)
        assert (report.true_positives, report.false_positives) == (1, 2)
        assert (report.true_negatives, report.false_negatives) == (1, 1)
        assert report.max_overshoot == pytest.approx(0.6 - 0.45, abs=1e-15)

    def test_threshold_must_be_inside_unit_interval(self):
        with pytest.raises(ValueError):
            threshold_report([], 0.0)
        with pytest.raises(ValueError):
            threshold_report([], 1.0)


class TestErrorSimilarityCorrelation:
    def test_high_truth_pairs_have_smaller_mean_error(self, sd_corpus):
        run = run_pairwise(sd_corpus, SketchParams("cbf", 128, seed=0), "dice")
        high = [r.error for r in run.results if r.truth >= 0.6]
        low = [r.error for r in run.results if r.truth < 0.2]
        assert high and low
        assert sum(high) / len(high) < sum(low) / len(low)


class TestCsvWriters:
    def test_grid_csv_with_missing_cell(self, tmp_path):
        out = tmp_path / "grid.csv"
        grid = GridSpec("cbf", dims=[16, 32], depths=[1])
        write_grid_csv(out, {(16, 1): 0.25, (32, 1): None}, grid)
        assert out.read_text().splitlines() == ["dim,depth,rmse", "16,1,0.25", "32,1,"]

    def test_threshold_csv(self, tmp_path):
        out = tmp_path / "threshold.csv"
        report = threshold_report([_result("p", 0.7, 0.8)], 0.6)
        write_threshold_csv(out, report)
        assert out.read_text().splitlines() == ["threshold,tp,fp,tn,fn,max_overshoot", "0.6,1,0,0,0,0.0"]

    def test_grid_csv_to_path(self, tmp_path):
        path = tmp_path / "grid.csv"
        grid = GridSpec("cbf", dims=[16], depths=[1])
        write_grid_csv(path, {(16, 1): 0.5}, grid)
        assert path.read_text().splitlines()[0] == "dim,depth,rmse"


def test_sketch_params_validation():
    # a Bloom filter is a valid sketch shape, but it holds no counts to score
    with pytest.raises(ValueError):
        run_pairwise([("p", Multiset({"a": 1}), Multiset({"a": 1}))], SketchParams("bf", 16), "dice")
    with pytest.raises(ValueError):
        GridSpec("bf")
    with pytest.raises(ValueError):
        SketchParams("cbf", 16, depth=2)
    with pytest.raises(ValueError):
        SketchParams("cms", 16, hash_count=2)
    for fields in [{"width": 0}, {"hash_count": 0}, {"seed": -1}, {"seed": 2**64}, {"seed": 1.0}]:
        with pytest.raises(ValueError):
            SketchParams("cbf", **{"width": 16, **fields})
    # sizes must be ints: a float or bool width, depth or hash count would fail later inside numpy
    for args in [("cbf", 128.5), ("cbf", 128.0), ("cms", 64, 2.0), ("cbf", True), ("cbf", 16, 1, 2.0),
                 ("cbf", 16, 1, True), ("cms", np.int64(64), 2)]:
        with pytest.raises(ValueError):
            SketchParams(*args)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec("cbf", dims=[], depths=[1])
    with pytest.raises(ValueError):
        GridSpec("cbf", dims=[16], depths=[0])
    with pytest.raises(ValueError):
        GridSpec("cbf", dims=[16], depths=[1], metric="other")
    # every cell is checked as a sketch shape at construction, before any corpus work
    for dims, depths in [([2**40], [1]), ([64.5], [1]), ([16], [2.0]), ([True], [1]), ([16, 0], [1])]:
        with pytest.raises(ValueError):
            GridSpec("cms", dims=dims, depths=depths)
