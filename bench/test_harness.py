"""Smoke test of the benchmark harness at tiny input sizes.

    python3 -m pytest -q bench/test_harness.py

Runs every workload through run.run_workload in fresh worker processes,
untraced and traced, and checks the result shape against BENCHMARK.json,
the self-time identity of the trace, and that the checks catch a wrong
output. Not part of the tier-1 suite (pyproject's testpaths is tests/).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = {"pairs": 11, "unique": 7, "sender_users": 40, "receiver_users": 30, "requests": 60}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generator_is_seeded_and_shape_is_fixed():
    first, again, other = inputs.generate(3, 40), inputs.generate(3, 40), inputs.generate(4, 40)
    assert first.lines == again.lines
    assert first.lines != other.lines
    assert first.properties()["lines"] == other.properties()["lines"]
    props = first.properties(1)
    assert props["lines"] == props["user_song_pairs"] + props["duplicate_lines"]
    assert 0 < props["repeat_digest_share"] < 1


def test_sampler_takes_out_its_own_time_and_scales_by_the_kernel():
    with hostspeed.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass
        end = time.perf_counter()
    inside = [s for s in sampler.starts if start <= s < end]
    assert len(inside) >= 2
    assert sampler.net(start, end) < end - start
    assert sampler.scaled(start, end) == pytest.approx(
        sampler.net(start, end) * hostspeed.KERNEL_REF_S / sampler.kernel_s(start, end))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    report = run.run_workload(workload, seed=5, seconds=0, trace=False, sizes=TINY)
    assert report["correct"], report["problems"]
    assert report["attempted"] >= 1 and report["failed"] == 0
    line = json.loads(run.result_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_repeats_its_counts(workload):
    first = run.run_workload(workload, seed=5, seconds=0, trace=True, sizes=TINY)
    second = run.run_workload(workload, seed=5, seconds=0, trace=True, sizes=TINY)
    assert first["correct"], first["problems"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: unit for k, (_, unit) in first["metrics"].items()} == expected
    counts = {k for k, unit in expected.items() if unit == "count"} | {
        "multiset.oracle_calls_per_pair", "sketches.builds_per_distinct", "hashing.digests_per_distinct"}
    assert {k: first["metrics"][k][0] for k in counts} == {k: second["metrics"][k][0] for k in counts}
    details = first["trace_details"]
    attributed = sum(details["layer_self_s"].get(layer, 0.0) for layer in tracing.LAYERS)
    assert attributed + first["metrics"]["trace.unattributed_s"][0] == pytest.approx(details["wall_s"], abs=1e-6)
    assert details["hook_errors"] == 0
    if workload == "paper-grid":
        assert first["metrics"]["multiset.oracle_calls_per_pair"][0] > 1
        assert first["metrics"]["cli.calls"][0] == 4
    if workload == "sender-ingest":
        assert first["metrics"]["hashing.digests_per_distinct"][0] > 1
        assert first["metrics"]["datasets.duplicates_merged"][0] >= 1
    if workload == "receiver-scoring":
        assert first["metrics"]["metrics.rejections"][0] == 5 * round(run.REJECT_SHARE * TINY["requests"])
        assert first["metrics"]["hashing.elements_digested"][0] == 0


def test_checks_catch_wrong_outputs(tmp_path):
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    grid = workloads.PaperGrid({"workdir": str(tmp_path), "pairs": TINY["pairs"], "unique": TINY["unique"],
                                "input_seed": 1, "expected": {"threshold.csv": "0" * 64}})
    grid.run_pass(0)
    attempted, failed, problems = grid.check_pass()
    assert attempted == 4 and failed == 4 and problems

    plan = run.make_plan("sender-ingest", 2, tmp_path, TINY)
    sender = workloads.SenderIngest(dict(plan, expected="0" * 64))
    sender.run_pass(0)
    attempted, failed, problems = sender.check_pass()
    assert failed == 1 and any("envelopes sha256" in p for p in problems)

    plan = run.make_plan("receiver-scoring", 2, tmp_path, TINY)
    lying = next(r for r in plan["requests"] if r["metric"] == "dice" and not r["variant"])
    lying["exact_num"] = lying["exact_den"]  # claims the pair is identical
    receiver = workloads.ReceiverScoring(dict(plan, expected="0" * 64))
    receiver.setup()
    receiver.prepare()
    receiver.run_pass(0)
    attempted, failed, problems = receiver.check_pass()
    assert attempted == TINY["requests"] and failed == 1
    assert any("unexpected outcome" in p for p in problems) and any("scores sha256" in p for p in problems)


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
