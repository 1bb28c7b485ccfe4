"""One workload process, started fresh by run.py for every role it plays.

    python3 bench/worker.py SPEC.json

SPEC names the workload, the plan file and the mode:

- ``setup``: import sketchsim and do the workload's set-up, then stop.
- ``measure``: set up, then run timed passes for ``seconds``, with the
  host-speed sampler on (hostspeed.Sampler).
- ``pass``: set up, then run ``passes`` untraced passes.
- ``trace``: set up, wrap the layers (tracing.install), run ``passes``
  traced passes and derive the per-layer metrics.

The result goes to the spec's ``result`` path as JSON. setup_s runs from
just before ``import sketchsim`` to the end of the workload's set-up,
scaled to the reference host speed by the calibration kernel timed right
after it; setup_wall_s is the same interval unscaled.
"""

from __future__ import annotations

# Standard modules the benchmark needs are loaded before the set-up clock
# starts, so setup_s counts the program's imports and work only.
import contextlib
import gc
import hashlib  # noqa: F401
import json
import math  # noqa: F401
import resource
import shutil  # noqa: F401
import statistics
import sys
import time
from pathlib import Path

import hostspeed

MAX_PROBLEMS = 20
SETUP_KERNELS = 25  # calibration kernels after set-up, about 25 ms


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    plan = json.loads(Path(spec["plan"]).read_text(encoding="utf-8"))
    started = time.perf_counter()
    import sketchsim

    import workloads

    workload = workloads.WORKLOADS[spec["workload"]](plan)
    workload.setup()
    setup_wall_s = time.perf_counter() - started
    result = {"setup_wall_s": setup_wall_s,
              "setup_s": setup_wall_s * hostspeed.calibrate(SETUP_KERNELS)}

    source = Path(sketchsim.__file__).resolve()
    if not source.is_relative_to(Path(spec["root"]).resolve() / "src"):
        raise SystemExit(f"sketchsim was imported from {source}, not from the checkout's src/")
    import numpy

    result["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "sketchsim": sketchsim.__version__}
    mode = spec["mode"]
    if mode == "setup":
        return _write(spec, result)

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        result["wrapped"] = tracing.install(tracer)
    workload.prepare()

    attempted = failed = 0
    problems: list[str] = []
    pass_walls = []
    sampler = hostspeed.Sampler() if mode == "measure" else None
    with sampler or contextlib.nullcontext():
        first = time.perf_counter()
        index = 0
        while True:
            gc.collect()  # every pass starts from the same heap, outside the timed region
            began = time.perf_counter()
            if tracer is not None:
                with tracer.root():
                    workload.run_pass(index, tracer)
            else:
                workload.run_pass(index)
            pass_walls.append(time.perf_counter() - began)
            tried, bad, found = workload.check_pass()
            attempted += tried
            failed += bad
            problems.extend(found[: MAX_PROBLEMS - len(problems)])
            index += 1
            if mode == "measure":
                # Stop before a pass that would end past ``seconds``, so a
                # run of long passes lasts ``seconds`` at most (one pass at least).
                if time.perf_counter() - first + statistics.median(pass_walls) > spec["seconds"]:
                    break
            elif index >= spec["passes"]:
                break

    result.update(attempted=attempted, failed=failed, problems=problems,
                  pass_wall_s=sum(pass_walls), pass_walls_s=pass_walls)
    if sampler is not None:
        result["summary"] = workload.summary(sampler)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(spec["untraced_wall_s"])
        result["trace"] = {
            "layer_self_s": {k: v / 1e9 for k, v in tracer.layer_self_ns.items()},
            "function_self_s": {k: v / 1e9 for k, v in sorted(tracer.name_self_ns.items())},
            "hook_s": tracer.hook_ns / 1e9,
            "hook_errors": tracer.counts["trace.hook_errors"],
            "spans": len(tracer.spans),
            "wall_s": tracer.wall_ns() / 1e9,
        }
        tracer.write_spans(spec["spans"])
    result["peak_rss_mib"] = peak_rss_mib()
    return _write(spec, result)


def peak_rss_mib() -> float:
    """Peak resident memory of this process image.

    VmHWM belongs to the image started by exec; ru_maxrss would also count
    the memory of run.py at the moment it started this worker."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _write(spec: dict, result: dict) -> int:
    Path(spec["result"]).write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
