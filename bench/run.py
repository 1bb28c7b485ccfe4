"""The sketchsim benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                      # all three workloads, every metric
    python3 bench/run.py --workload paper-grid --seed 3 --seconds 35 --trace 0

Run it from anywhere inside a checkout; it benchmarks that checkout's
src/. Each workload runs in fresh single-threaded worker processes
(worker.py): a warm-up, several set-ups for setup_s, and one measuring
process. With ``--trace 1`` it runs one untraced and one traced pass
instead and reports the per-layer metrics. The last line of stdout is
one JSON object: correct, attempted, failed and the metrics.

Workloads and why they were chosen (README.md has the metric tables):

- paper-grid: the paper's evaluation through cli.main (gen, a CBF and a
  CMS grid over the default 5x5 lattice, threshold). Time goes to the
  exact oracle and to per-pair sketch builds.
- sender-ingest: the device side. cli ingest of about 200k generated
  triplet lines, read_profiles, then a CBF and a CMS envelope per kept
  user. Time goes to parsing and to hashing each user's songs.
- receiver-scoring: closed loop, one client, no think time. Each request
  decodes two envelopes from memory, checks their headers and scores
  them. Small fixed work per call, so per-call overhead dominates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

WORKLOADS = ("paper-grid", "sender-ingest", "receiver-scoring")
FULL_SIZES = {"pairs": 1001, "unique": 67, "sender_users": 3000, "receiver_users": 600, "requests": 4000}
REQUEST_MIX = (("cbf", "dice", 0.7), ("cbf", "cosine", 0.1), ("cms", "dice", 0.1), ("cms", "cosine", 0.1))
REJECT_SHARE = 0.03  # requests whose second envelope differs in seed or width
SETUP_SAMPLES = 7
TRACE_PASSES = {"paper-grid": 1, "sender-ingest": 1, "receiver-scoring": 5}
INPUT_SEEDS = 16  # --seed n runs on input seed n % 16, whose outputs golden.json records
CHILD_MARGIN_S = 120  # a worker may overrun --seconds by a few passes, set-up and checks
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def golden() -> dict:
    """Expected outputs per workload and input seed, recorded by record_golden.py."""
    return json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


def input_seed_and_expected(workload: str, seed: int, sizes: dict) -> tuple[int, object]:
    """The input seed for --seed, and the outputs recorded for it.

    At other sizes than the recorded ones (the harness smoke test) there is
    no record, and later passes are compared with the first."""
    recorded = golden()
    if sizes != recorded["sizes"]:
        return seed, None
    input_seed = seed % INPUT_SEEDS
    return input_seed, recorded[workload][str(input_seed)]


def _write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value), encoding="utf-8")


def make_plan(workload: str, input_seed: int, workdir: Path, sizes: dict) -> dict:
    """Generate the workload's inputs from the seed and the outputs they must give."""
    plan: dict = {"workdir": str(workdir), "input_seed": input_seed}
    if workload == "paper-grid":
        plan.update(pairs=sizes["pairs"], unique=sizes["unique"])
        plan["properties"] = {"pairs": sizes["pairs"], "unique": sizes["unique"], "input_seed": input_seed,
                              "pair_evaluations": 51 * sizes["pairs"]}
        return plan

    import inputs

    users = sizes["sender_users"] if workload == "sender-ingest" else sizes["receiver_users"]
    triplets = inputs.generate(input_seed, users)
    plan["triplets"] = str(workdir / "triplets.tsv")
    triplets.write(plan["triplets"])
    if workload == "sender-ingest":
        kept = triplets.kept()
        plan["min_distinct"] = inputs.MIN_DISTINCT
        plan["properties"] = dict(triplets.properties(), input_seed=input_seed)
        plan["kept_cardinality"] = {user: sum(songs.values()) for user, songs in kept.items()}
        # What write_profiles must produce: kept users in first-seen order, songs sorted.
        hasher = hashlib.sha256()
        for user, songs in kept.items():
            for song in sorted(songs):
                hasher.update(f"{user}\t{song}\t{songs[song]}\n".encode("utf-8"))
        plan["profiles_sha256"] = hasher.hexdigest()
    else:
        plan["properties"] = dict(triplets.properties(1), input_seed=input_seed)
        plan["requests"] = make_requests(input_seed, triplets.profiles, sizes["requests"])
        plan["properties"]["requests_per_sweep"] = sizes["requests"]
        plan["properties"]["rejections_per_sweep"] = sum(1 for r in plan["requests"] if r["variant"])
    return plan


def make_requests(seed: int, profiles: dict, count: int) -> list[dict]:
    """A fixed request list: exact shares of each kind and metric, seeded pairs.

    The exact Dice is worked out here from the generated profiles, as an
    integer ratio, outside the timed loop."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    users = list(profiles)
    kinds = []
    for kind, metric, share in REQUEST_MIX:
        kinds += [(kind, metric)] * round(share * count)
    kinds = (kinds + [REQUEST_MIX[0][:2]] * count)[:count]  # rounding leftovers go to the first kind
    order = rng.permutation(count)
    first = rng.integers(0, len(users), size=count)
    second = (first + rng.integers(1, len(users), size=count)) % len(users)
    rejected = set(rng.choice(count, size=round(REJECT_SHARE * count), replace=False).tolist())
    requests = []
    for i in range(count):
        kind, metric = kinds[order[i]]
        a, b = users[first[i]], users[second[i]]
        shared = sum(min(n, profiles[b].get(song, 0)) for song, n in profiles[a].items())
        requests.append({
            "kind": kind, "metric": metric, "a": a, "b": b,
            "variant": ("seed", "width")[i % 2] if i in rejected else None,
            "exact_num": 2 * shared,
            "exact_den": sum(profiles[a].values()) + sum(profiles[b].values()),
        })
    return requests


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def spawn(spec: dict, workdir: Path, role: str, log_prefix: str) -> dict:
    """Run one fresh worker process; its stdout and stderr go to a log file."""
    timeout = spec["seconds"] + CHILD_MARGIN_S
    spec = dict(spec, root=str(ROOT), result=str(workdir / f"{role}.json"))
    spec_path = workdir / f"{role}.spec.json"
    _write_json(spec_path, spec)
    log_path = OUT / "logs" / f"{log_prefix}-{role}.log"
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            completed = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=timeout, check=False,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{role} worker ran over {timeout} s; see {log_path}") from None
    if completed.returncode != 0:
        raise BenchmarkError(f"{role} worker exited with {completed.returncode}; see {log_path}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def machine() -> dict:
    commit = ""
    if (ROOT / ".git").exists():  # git would otherwise look in the checkout's parents
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=False).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit or "unknown (not a git checkout)", "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu, "platform": platform.platform()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: dict = FULL_SIZES) -> dict:
    """Run one workload in fresh processes and return its metrics and details."""
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (OUT / "logs").mkdir(parents=True, exist_ok=True)
    try:
        input_seed, expected = input_seed_and_expected(workload, seed, sizes)
        plan = dict(make_plan(workload, input_seed, workdir, sizes), expected=expected)
        plan_path = workdir / "plan.json"
        _write_json(plan_path, plan)
        spec = {"workload": workload, "plan": str(plan_path), "seconds": seconds}
        report = {"workload": workload, "seed": seed, "trace": trace, "machine": machine(),
                  "inputs": plan["properties"]}
        if trace:
            passes = TRACE_PASSES[workload]
            untraced = spawn(dict(spec, mode="pass", passes=passes), workdir, "untraced", tag)
            traced = spawn(dict(spec, mode="trace", passes=passes, untraced_wall_s=untraced["pass_wall_s"],
                                spans=str(OUT / f"{tag}-spans.tsv")), workdir, "traced", tag)
            runs = [untraced, traced]
            report["metrics"] = {name: (value, layer_unit(name)) for name, value in traced["layers"].items()}
            report["trace_details"] = traced["trace"]
            report["wrapped"] = traced["wrapped"]
        else:
            spawn(dict(spec, mode="setup"), workdir, "warmup", tag)
            setups = [spawn(dict(spec, mode="setup"), workdir, f"setup{i}", tag) for i in range(SETUP_SAMPLES - 1)]
            measured = spawn(dict(spec, mode="measure"), workdir, "measure", tag)
            setups.append(measured)
            runs = [measured]
            summary = measured["summary"]
            setup_s = (statistics.median(r["setup_s"] for r in setups), "s")
            peak_rss_mib = (measured["peak_rss_mib"], "MiB")
            report["metrics"] = {"setup_s": setup_s, "peak_rss_mib": peak_rss_mib,
                                 "workflow_s": (summary["workflow_s"], "s"),
                                 "ops_per_s": (summary["ops_per_s"], "1/s")}
            report["reported"] = dict(
                summary.pop("reported"), setup_s=setup_s, peak_rss_mib=peak_rss_mib,
                setup_wall_s=(statistics.median(r["setup_wall_s"] for r in setups), "s"))
            report["setup_samples_s"] = [r["setup_s"] for r in setups]
            report["pass_walls_s"] = measured["pass_walls_s"]
            report["summary"] = summary
        report["env"] = runs[-1]["env"]
        report["attempted"] = sum(r["attempted"] for r in runs)
        report["failed"] = sum(r["failed"] for r in runs)
        report["problems"] = [p for r in runs for p in r["problems"]]
        report["correct"] = report["failed"] == 0 and not report["problems"]
        if not trace:
            report["reported"]["ops_failed_ratio"] = (report["failed"] / report["attempted"], "ratio")
        _write_json(OUT / f"{tag}.json", report)
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_per_pair", "_per_distinct", "_ratio")):
        return "ratio"
    return "count"


def print_report(report: dict) -> None:
    name = report["workload"]
    env = dict(report["machine"], **report["env"])
    print(f"[{name}] seed={report['seed']} trace={int(report['trace'])} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"[{name}] inputs " + " ".join(f"{k}={v}" for k, v in report["inputs"].items()))
    shown = report["metrics"] if report["trace"] else report["reported"]
    for metric, (value, unit) in shown.items():
        print(f"[{name}] {metric} = {value:.6g} {unit}")
    for problem in report["problems"]:
        print(f"[{name}] CHECK FAILED: {problem}")
    print(f"[{name}] correct={report['correct']} attempted={report['attempted']} failed={report['failed']}")


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["correct"], "attempted": report["attempted"], "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sketchsim" / "__init__.py").is_file():
        print(f"bench: no sketchsim source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    reports = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            report = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            return 1
        print_report(report)
        reports.append(report)
    if len(reports) == 1:
        print(result_line(reports[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": {f"{r['workload']}/{k}": {"value": v, "unit": u}
                        for r in reports for k, (v, u) in r["metrics"].items()},
        }))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
