"""Alternating parent/change pairs of the benchmark, written as one BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent HEAD --label N --pairs 10 --first-seed 6 \\
        --change "what the change does" --claim paper-grid/ops_per_s --trace paper-grid

The change side is this checkout's working tree (`bench/run.py`
benchmarks the checkout it sits in). The parent side is the committed
tree of `--parent`, exported with `git archive` under `--workdir`: an
export leaves the repository's `.git` untouched, where a worktree would
register itself there and outlive an interrupted run. Pair i runs
`python3 bench/run.py --seed <first-seed + i>` on both sides back to
back, the parent first in even pairs and second in odd ones.

The record holds the machine and versions; per workload and gated
metric each side's runs, median and quartiles, the median change and
the pairs the change wins (ties count for neither); each run's pass
count and the step timings the workloads report; each side's package
size (the lines of src/sketchsim/*.py, the code lines among them, and
the names its __init__.py imports); the regressions, every workload and gated metric that the
change lost in nine tenths of the pairs by more than the parent's
interquartile range in the median; with --claim, whether the change won
the claimed metric that way, with no regression, every run correct and
no pair failing more operations than the parent; and with --trace, one
traced pass per side.
Each run lasts bench/run.py's default, the run_seconds of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import shutil
import statistics
import subprocess
import sys
import token
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def export(commit: str, workdir: Path) -> Path:
    """A fresh copy of the committed tree of `commit`."""
    target = workdir / f"parent-{commit[:12]}"
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target


def bench(checkout: Path, *args: str) -> dict:
    """The result line of `bench/run.py` in a checkout (exit 1 only marks wrong outputs, kept in the line)."""
    done = subprocess.run([sys.executable, "bench/run.py", *args], cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"bench/run.py {' '.join(args)} failed in {checkout}:\n{done.stderr[-4000:]}")
    return json.loads(lines[-1])


def report(checkout: Path, workload: str, seed: int) -> dict:
    """The per-workload report an untraced `bench/run.py --seed` wrote in a checkout."""
    return json.loads((checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8"))


def step_medians(reports: dict[str, list[dict]], workload: str, skip) -> dict:
    """Each side's median of every figure a workload reports besides the gated metrics (step timings)."""
    names = reports["change"][0][workload]["reported"]
    return {name: {"unit": unit, **{side: round(statistics.median(r[workload]["reported"][name][0] for r in runs), 6)
                                    for side, runs in reports.items()}}
            for name, (_, unit) in names.items() if name not in skip}


def code_lines(source: str) -> int:
    """The lines of Python source that hold code: no blank, comment-only or docstring line, read by tokenize and ast."""
    prose = {token.NL, token.NEWLINE, token.INDENT, token.DEDENT, token.ENDMARKER, tokenize.COMMENT}
    lines = {line for tok in tokenize.generate_tokens(io.StringIO(source).readline) if tok.type not in prose
             for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and \
                ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def source_size(checkout: Path) -> dict:
    """A checkout's package size: the lines and code lines of src/sketchsim/*.py and the names __init__.py imports."""
    package = checkout / "src" / "sketchsim"
    paths = sorted(package.glob("*.py"))
    lines = sum(path.read_bytes().count(b"\n") for path in paths)
    code = sum(code_lines(path.read_text(encoding="utf-8")) for path in paths)
    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    names = sum(len(node.names) for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__")
    return {"src_lines": lines, "src_code_lines": code, "init_imported_names": names}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6), "iqr": round(q3 - q1, 6)}


def _wins(ahead: list[float], behind: list[float], better: str) -> int:
    """The pairs in which `ahead` reads better than `behind`; ties count for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (a - b) > 0 for a, b in zip(ahead, behind))


def _ahead(entry: dict, side: str, other: str) -> bool:
    """Whether `side` reads better than `other` in nine tenths of the pairs, and in the median by more than the parent's IQR."""
    ahead, behind = entry[f"runs_{side}"], entry[f"runs_{other}"]
    gap = statistics.median(ahead) - statistics.median(behind)
    return (_wins(ahead, behind, entry["better"]) >= 0.9 * len(ahead)
            and (gap if entry["better"] == "higher" else -gap) > entry["parent"]["iqr"])


def decide(workloads: dict, operations: dict, claim: str | None) -> dict:
    """The verdict of a record's runs: its regressions and, with a claim, whether the claim holds.

    `workloads` and `operations` are the record's own entries. A
    regression is a workload/metric the change loses as a claim must
    win: in nine tenths of the pairs, and in the median by more than
    the parent's interquartile range. A claim holds when the change wins
    the claimed workload/metric so, nothing regresses, every run of both
    sides is correct, and no pair fails more operations than the parent.
    """
    verdict: dict = {"regressions": [f"{workload}/{metric}" for workload, entries in workloads.items()
                                     for metric, entry in entries.items() if _ahead(entry, "parent", "change")]}
    if claim:
        workload, metric = claim.split("/")
        no_more_failed = all(c <= p for c, p in zip(operations["change"]["failed"], operations["parent"]["failed"]))
        verdict["claim_holds"] = (_ahead(workloads[workload][metric], "change", "parent") and not verdict["regressions"]
                                  and operations["parent"]["correct"] and operations["change"]["correct"]
                                  and no_more_failed)
    return verdict


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    gated = {m["name"]: m for m in benchmark["end_to_end"]}
    # --claim and --trace take their choices from BENCHMARK.json, so a typo fails before any pair runs
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="parent revision (default: HEAD, the last commit)")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json at the repository root")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0, help="pair i runs on --seed first-seed + i")
    parser.add_argument("--change", default="", help="one line saying what the change does")
    parser.add_argument("--claim", choices=[f"{w}/{m}" for w in workloads for m in gated], metavar="WORKLOAD/METRIC",
                        help="the workload and gated metric the change claims a gain on")
    parser.add_argument("--trace", choices=workloads, help="also run one traced pass of this workload per side")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".bench_pairs", help="where the parent is exported")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    commit = git("rev-parse", args.parent)
    sides = {"parent": export(commit, args.workdir), "change": ROOT}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    reports: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair, seed in enumerate(seeds):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            results[side].append(bench(sides[side], "--seed", str(seed)))
            reports[side].append({w: report(sides[side], w, seed) for w in workloads})
            print(f"pair {pair} seed {seed} {side}: correct={results[side][-1]['correct']}", file=sys.stderr)
    first = reports["change"][0][workloads[0]]
    record = {
        "change": args.change,
        "parent_commit": commit,
        "command": "python3 bench/run.py --seed N",
        "machine": {k: v for k, v in first["machine"].items() if k != "commit"},
        "python": first["env"]["python"],
        "numpy": first["env"]["numpy"],
        "run_seconds": benchmark["run_seconds"],
        "input_seeds": seeds,
        "runs_per_side": args.pairs,
        "pairing": f"pair i runs both sides on seed {args.first_seed} + i, back to back in separate checkouts; "
                   "the parent runs first in even pairs and second in odd pairs",
        "statistics": "median and quartiles (inclusive method) over the runs of each side; median_change = change "
                      "median / parent median - 1; wins = pairs in which the change reads better (ties count for neither)",
        "gain_claimed": dict(zip(("workload", "metric"), args.claim.split("/"))) if args.claim else False,
        "operations": {side: {"attempted": [r["attempted"] for r in results[side]],
                              "failed": [r["failed"] for r in results[side]],
                              "correct": all(r["correct"] for r in results[side])} for side in results},
        "workloads": {},
        "passes": {w: {side: [r[w]["summary"]["passes"] for r in reports[side]] for side in reports} for w in workloads},
        "reported_medians": {w: step_medians(reports, w, gated) for w in workloads},
        "source_size": {side: source_size(checkout) for side, checkout in sides.items()},
    }
    for workload in workloads:
        entry = record["workloads"][workload] = {}
        for name, meta in gated.items():
            runs = {side: [r["metrics"][f"{workload}/{name}"]["value"] for r in results[side]] for side in results}
            parent, change = spread(runs["parent"]), spread(runs["change"])
            entry[name] = {
                "unit": meta["unit"], "better": meta["better"], "parent": parent, "change": change,
                "median_change": round(change["median"] / parent["median"] - 1, 4),
                "change_wins": f"{_wins(runs['change'], runs['parent'], meta['better'])} of {args.pairs}",
                "runs_parent": [round(v, 6) for v in runs["parent"]],
                "runs_change": [round(v, 6) for v in runs["change"]],
            }
    record.update(decide(record["workloads"], record["operations"], args.claim))
    if args.trace:
        command = ("--workload", args.trace, "--trace", "1", "--seed", str(seeds[0]))
        record["trace"] = {"command": "python3 bench/run.py " + " ".join(command)}
        record["trace"].update({side: {k: v["value"] for k, v in bench(sides[side], *command)["metrics"].items()}
                                for side in sides})
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
