"""Record the expected outputs of every workload for each input seed.

    PYTHONPATH=src python3 bench/record_golden.py

run.py maps ``--seed n`` to input seed ``n % 16`` and requires, byte for
byte: the paper-grid manifest, profiles, grid CSVs and threshold CSV;
every sender-ingest envelope; every receiver-scoring score and
rejection. Re-record only when a change is meant to alter those outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def record(workload: str, input_seed: int):
    workdir = run.WORK / f"record-golden-{workload}-{input_seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = dict(run.make_plan(workload, input_seed, workdir, run.FULL_SIZES), expected=None)
        program = workloads.WORKLOADS[workload](plan)
        program.setup()
        program.prepare()
        program.run_pass(0)
        _, failed, problems = program.check_pass()
        if failed:
            raise SystemExit(f"{workload} input seed {input_seed}: {problems}")
        return program.expected
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    recorded: dict = {"sizes": run.FULL_SIZES}
    for workload in run.WORKLOADS:
        recorded[workload] = {}
        for input_seed in range(run.INPUT_SEEDS):
            recorded[workload][str(input_seed)] = record(workload, input_seed)
            print(f"{workload} input seed {input_seed} recorded", file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
