"""The three workloads: set-up, one pass of the timed chain, and its checks.

Each workload reads a plan written by run.py: paths of the generated
inputs and the expected outputs, worked out by the benchmark itself.
The program is reached only through module attributes
(``cli.main``, ``wire.decode``), so a traced process sees the wrappers
installed by tracing.install and an untraced one the program as shipped.

A pass records perf_counter timestamps, not durations; ``summary(sampler)``
turns each timed interval into seconds at the reference host speed with
``sampler.scaled`` (hostspeed.py) and into wall seconds with ``sampler.net``.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

from sketchsim import cli, datasets, metrics, sketches, wire

CBF_LENGTH, CBF_HASHES = 128, 1
CMS_WIDTH, CMS_DEPTH = 128, 4
CBF_ENVELOPE_BYTES = 539
CMS_ENVELOPE_BYTES = 2075
RATE_CHUNK = 500  # requests per throughput sample on receiver-scoring
USER_CHUNK = 50  # kept users per throughput sample on sender-ingest
LATENCY_BIN_NS = 100


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def median(values) -> float:
    return statistics.median(values)


class PaperGrid:
    """gen -> grid cbf -> grid cms -> threshold, in-process through cli.main."""

    STEPS = ("gen", "grid_cbf", "grid_cms", "threshold")
    ARTIFACTS = {
        "gen": ("manifest.json", "profiles.tsv"),
        "grid_cbf": ("grid_cbf.csv",),
        "grid_cms": ("grid_cms.csv",),
        "threshold": ("threshold.csv",),
    }

    def __init__(self, plan: dict):
        self.plan = plan
        self.workdir = Path(plan["workdir"])
        # Digests recorded for this input seed; without them (the harness
        # smoke test) later passes are compared with the first.
        self.expected = plan["expected"]
        self.pairs = plan["pairs"]
        self.results: list[dict] = []

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def _argvs(self, out: Path) -> list[list[str]]:
        manifest = str(out / "manifest.json")
        return [
            ["gen", "--out", str(out), "--pairs", str(self.pairs), "--unique", str(self.plan["unique"]),
             "--strlen", "10", "--seed", str(self.plan["input_seed"])],
            ["grid", "--corpus", manifest, "--out", str(out / "grid_cbf.csv"), "--kind", "cbf"],
            ["grid", "--corpus", manifest, "--out", str(out / "grid_cms.csv"), "--kind", "cms"],
            ["threshold", "--corpus", manifest, "--out", str(out / "threshold.csv"), "--kind", "cbf",
             "--length", str(CBF_LENGTH), "--hashes", str(CBF_HASHES), "--threshold", "0.6"],
        ]

    def run_pass(self, index: int, tracer=None) -> None:
        out = self.workdir / f"pass{index}"
        times, codes = {}, {}
        for request, (step, argv) in enumerate(zip(self.STEPS, self._argvs(out))):
            if tracer is not None:
                tracer.request = request
            started = time.perf_counter()
            codes[step] = cli.main(argv)
            times[step] = (started, time.perf_counter())
        self.results.append({"out": out, "times": times, "codes": codes})

    def check_pass(self) -> tuple[int, int, list[str]]:
        result = self.results[-1]
        out = result.pop("out")
        digests = {name: sha256_file(out / name) for names in self.ARTIFACTS.values()
                   for name in names if (out / name).is_file()}
        if self.expected is None:
            self.expected = digests
        problems = []
        failed = set()
        for step in self.STEPS:
            if result["codes"][step] != 0:
                problems.append(f"{step} exited with {result['codes'][step]}")
                failed.add(step)
            for name in self.ARTIFACTS[step]:
                if digests.get(name) != self.expected.get(name):
                    problems.append(f"{step}: {name} sha256 {digests.get(name)} != {self.expected.get(name)}")
                    failed.add(step)
        shutil.rmtree(out, ignore_errors=True)
        return len(self.STEPS), len(failed), problems

    def summary(self, sampler) -> dict:
        grid_pairs = 2 * 25 * self.pairs
        scaled = [{step: sampler.scaled(*span) for step, span in r["times"].items()} for r in self.results]
        walls = [sum(sampler.net(*span) for span in r["times"].values()) for r in self.results]
        grid_rates = [grid_pairs / (t["grid_cbf"] + t["grid_cms"]) for t in scaled]
        reported = {
            "workflow_s": (median(sum(t.values()) for t in scaled), "s"),
            "grid_pairs_per_s": (median(grid_rates), "pairs/s"),
            "workflow_wall_s": (median(walls), "s"),
        }
        for step in self.STEPS:
            reported[f"{step}_s"] = (median(t[step] for t in scaled), "s")
        return _summary(reported, "grid_pairs_per_s", sampler, passes=len(scaled))


class SenderIngest:
    """cli ingest -> read_profiles -> CBF and CMS envelopes for every kept user."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.triplets = plan["triplets"]
        self.profiles_out = Path(plan["workdir"]) / "profiles.tsv"
        self.cardinality: dict[str, int] = plan["kept_cardinality"]
        self.results: list[dict] = []
        # sha256 of all envelopes, recorded for this input seed (or the first pass's).
        self.expected: str | None = plan["expected"]
        self.chunks: list[tuple[int, list[float]]] = []  # envelopes per chunk, chunk boundaries

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def run_pass(self, index: int, tracer=None) -> None:
        if tracer is not None:
            tracer.request = -1
        started = time.perf_counter()
        code = cli.main(["ingest", self.triplets, "--out", str(self.profiles_out),
                         "--min-distinct", str(self.plan["min_distinct"])])
        ingested = time.perf_counter()
        profiles = datasets.read_profiles(self.profiles_out)
        read = time.perf_counter()
        chunk = min(USER_CHUNK, len(profiles))
        marks = [read]
        built = []
        for request, (user, profile) in enumerate(profiles.items()):
            if tracer is not None:
                tracer.request = request
            cbf = sketches.CountingBloomFilter.from_multiset(profile, CBF_LENGTH, CBF_HASHES, 0)
            cms = sketches.CountMinSketch.from_multiset(profile, CMS_WIDTH, CMS_DEPTH, 0)
            built.append((user, cbf, cms, wire.encode(cbf), wire.encode(cms)))
            if len(built) % chunk == 0:
                marks.append(time.perf_counter())
        done = time.perf_counter()
        self.chunks.append((2 * chunk, marks))
        self.results.append({
            "code": code, "built": built,
            "times": {"ingest": (started, ingested), "read": (ingested, read), "sketch": (read, done)},
        })

    def check_pass(self) -> tuple[int, int, list[str]]:
        result = self.results[-1]
        built = result.pop("built")
        problems = []
        if result["code"] != 0:
            problems.append(f"ingest exited with {result['code']}")
        digest = sha256_file(self.profiles_out) if self.profiles_out.is_file() else None
        if digest != self.plan["profiles_sha256"]:
            problems.append(f"profiles output sha256 {digest} != expected {self.plan['profiles_sha256']}")
        if [user for user, *_ in built] != list(self.cardinality):
            problems.append("kept users differ from the generator's users with enough distinct songs")
        ingest_failed = 1 if problems else 0
        failed_envelopes = 0
        hasher = hashlib.sha256()
        for user, cbf, cms, cbf_bytes, cms_bytes in built:
            hasher.update(cbf_bytes)
            hasher.update(cms_bytes)
            plays = self.cardinality.get(user)
            for sketch, data, size in ((cbf, cbf_bytes, CBF_ENVELOPE_BYTES), (cms, cms_bytes, CMS_ENVELOPE_BYTES)):
                counters = sketch.counters if sketch.kind == "cbf" else sketch.table
                row_sums = counters.reshape(-1, counters.shape[-1]).sum(axis=1).tolist()
                ok = (len(data) == size and wire.decode(data) == sketch
                      and row_sums == [plays] * len(row_sums) and not sketch.saturated)
                if not ok:
                    failed_envelopes += 1
                    if len(problems) < 10:
                        problems.append(f"{sketch.kind} envelope of {user} is wrong "
                                        f"({len(data)} bytes, row sums {row_sums[:4]}, plays {plays})")
        digest = hasher.hexdigest()
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            problems.append(f"envelopes sha256 {digest} != expected {self.expected}")
            failed_envelopes = max(failed_envelopes, 1)
        result["users"] = len(built)
        return 1 + 2 * len(built), ingest_failed + failed_envelopes, problems

    def summary(self, sampler) -> dict:
        lines = self.plan["properties"]["lines"]
        times = [{phase: sampler.scaled(*span) for phase, span in r["times"].items()} for r in self.results]
        walls = [sum(sampler.net(*span) for span in r["times"].values()) for r in self.results]
        # Envelope throughput as the median over chunks of USER_CHUNK users,
        # so a burst of load from other processes moves it less than a mean.
        rates = [envelopes / sampler.scaled(start, end)
                 for envelopes, marks in self.chunks for start, end in zip(marks, marks[1:])]
        reported = {
            "workflow_s": (median(sum(t.values()) for t in times), "s"),
            "ingest_lines_per_s": (median(lines / t["ingest"] for t in times), "lines/s"),
            "envelopes_per_s": (median(rates), "envelopes/s"),
            "ingest_s": (median(t["ingest"] for t in times), "s"),
            "read_s": (median(t["read"] for t in times), "s"),
            "sketch_s": (median(t["sketch"] for t in times), "s"),
            "workflow_wall_s": (median(walls), "s"),
        }
        return _summary(reported, "envelopes_per_s", sampler, passes=len(times), envelope_sha256=self.expected)


class ReceiverScoring:
    """Closed loop, one client: decode two envelopes, check headers, score."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.requests = plan["requests"]
        self.store: dict[tuple, bytes] = {}
        self.table: list[tuple] = []
        # sha256 of all outcomes, recorded for this input seed (or the first sweep's).
        self.expected: str | None = plan["expected"]
        # Latencies as a histogram in LATENCY_BIN_NS bins, and throughput per
        # RATE_CHUNK requests: memory that does not grow with the request rate,
        # so peak_rss_mib does not depend on how fast the program runs.
        self.latency_bins: Counter = Counter()
        self.chunks: list[tuple[int, float, float]] = []  # requests, start, end
        self.sweeps: list[tuple[float, float]] = []

    @staticmethod
    def _envelope(profile, kind: str, variant: str | None) -> bytes:
        seed = 1 if variant == "seed" else 0
        scale = 2 if variant == "width" else 1
        if kind == "cbf":
            sketch = sketches.CountingBloomFilter.from_multiset(profile, CBF_LENGTH * scale, CBF_HASHES, seed)
        else:
            sketch = sketches.CountMinSketch.from_multiset(profile, CMS_WIDTH * scale, CMS_DEPTH, seed)
        return wire.encode(sketch)

    def setup(self) -> None:
        """The receiver's envelope store, produced from the sender's users."""
        profiles = datasets.read_profiles(self.plan["triplets"])
        for user, profile in profiles.items():
            for kind in ("cbf", "cms"):
                self.store[(kind, user, None)] = self._envelope(profile, kind, None)
        for kind, user, variant in {(r["kind"], r["b"], r["variant"]) for r in self.requests if r["variant"]}:
            self.store[(kind, user, variant)] = self._envelope(profiles[user], kind, variant)

    def prepare(self) -> None:
        self.table = [
            (self.store[(r["kind"], r["a"], None)], self.store[(r["kind"], r["b"], r["variant"])],
             getattr(metrics, f"{r['kind']}_{r['metric']}"))
            for r in self.requests
        ]

    def run_pass(self, index: int, tracer=None) -> None:
        decode, witness_of, check = wire.decode, metrics.witness_of, metrics.check_witnesses
        rejected = metrics.IncompatibleSketchError
        clock = time.perf_counter_ns
        outcomes = []
        begins = []
        latencies = []
        started = time.perf_counter()
        for request, (left, right, score) in enumerate(self.table):
            if tracer is not None:
                tracer.request = request
            begin = clock()
            try:
                a = decode(left)
                b = decode(right)
                check(witness_of(a), witness_of(b))
                outcome = score(a, b)
            except rejected as exc:
                outcome = tuple(exc.mismatched_fields)
            latencies.append(clock() - begin)
            begins.append(begin)
            outcomes.append(outcome)
        ended = time.perf_counter()
        self.sweeps.append((started, ended))
        self.latency_bins.update(ns // LATENCY_BIN_NS for ns in latencies)
        # Chunks of RATE_CHUNK consecutive requests, from the start of the
        # first to the start of the next (perf_counter_ns and perf_counter
        # read one clock); the last chunk ends with the sweep.
        starts = range(0, len(begins), RATE_CHUNK)
        bounds = [begins[i] / 1e9 for i in starts] + [ended]
        self.chunks += [(min(RATE_CHUNK, len(begins) - i), start, end)
                        for i, start, end in zip(starts, bounds, bounds[1:])]
        self._last = outcomes

    def _expected_ok(self, request: dict, outcome) -> bool:
        if request["variant"]:
            return outcome == (request["variant"],)
        if not isinstance(outcome, float) or not 0.0 <= outcome <= 1.0:
            return False
        if request["metric"] == "dice":
            # One-sided estimator: never below the exact Dice. Division
            # rounds monotonically, so comparing the two quotients is exact.
            return outcome >= request["exact_num"] / request["exact_den"]
        return True

    def check_pass(self) -> tuple[int, int, list[str]]:
        outcomes = self._last
        problems = []
        failed = 0
        for index, (request, outcome) in enumerate(zip(self.requests, outcomes)):
            if not self._expected_ok(request, outcome):
                failed += 1
                if len(problems) < 10:
                    problems.append(f"request {index} {request['kind']}-{request['metric']} "
                                    f"variant={request['variant']}: unexpected outcome {outcome!r}")
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            problems.append(f"scores sha256 {digest} != expected {self.expected}")
            failed = max(failed, 1)
        return len(outcomes), failed, problems

    def _percentile(self, share: float) -> float:
        """Latency percentile in microseconds, at the middle of its bin."""
        rank = max(1, math.ceil(share * sum(self.latency_bins.values())))
        seen = 0
        for bin_, n in sorted(self.latency_bins.items()):
            seen += n
            if seen >= rank:
                return (bin_ + 0.5) * LATENCY_BIN_NS / 1e3
        raise ValueError("no latency samples")

    def summary(self, sampler) -> dict:
        count = sum(self.latency_bins.values())
        # Throughput as the median over short chunks of consecutive requests,
        # so a burst of load from other processes moves it less than a mean.
        # Latencies are wall times, not scaled.
        rates = [requests / sampler.scaled(start, end) for requests, start, end in self.chunks]
        reported = {
            "compare_p50_us": (self._percentile(0.5), "us"),
            "compare_p99_us": (self._percentile(0.99), "us"),
            "compares_per_s": (median(rates), "requests/s"),
            "compares_per_s_overall": (count / sum(sampler.net(*span) for span in self.sweeps), "requests/s"),
            "workflow_s": (median(sampler.scaled(*span) for span in self.sweeps), "s"),
            "workflow_wall_s": (median(sampler.net(*span) for span in self.sweeps), "s"),
        }
        return _summary(reported, "compares_per_s", sampler, passes=len(self.sweeps), latency_samples=count,
                        score_sha256=self.expected)


def _summary(reported: dict, ops_metric: str, sampler, **details) -> dict:
    """The gated figures (ops_per_s, workflow_s) and everything reported."""
    reported["host_speed"] = (sampler.speed(), "ratio")
    return dict(details, ops_per_s=reported[ops_metric][0], workflow_s=reported["workflow_s"][0],
                reported=reported)


WORKLOADS = {"paper-grid": PaperGrid, "sender-ingest": SenderIngest, "receiver-scoring": ReceiverScoring}
