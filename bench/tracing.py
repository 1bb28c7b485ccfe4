"""In-memory span tracer over the public functions of each sketchsim layer.

`install` wraps every public module-level function and every public
classmethod of the layer modules, and rebinds each wrapper wherever the
program holds the original: module attributes, names other modules
imported (``experiments.dice``) and dispatch tables (``cli._METRIC_FNS``).
Only a call that enters a layer from outside it opens a span; calls
inside a layer run through untimed, so a span covers one entry into the
layer. Spans stay in memory until the run ends.

A span's self time is its duration minus the time covered by its child
spans and by the tracer's own bookkeeping. Layer self times plus the
unattributed time (benchmark code and bookkeeping) add up to the wall
time of the root span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "datasets", "multiset", "hashing", "sketches", "metrics", "wire", "experiments")
ROOT_LAYER = "bench"
# Scalar helpers called per element or per sketch row, each cheaper than
# the wrapper itself; their time counts in the layer that calls them.
UNWRAPPED = {"multiset.as_element", "hashing.fnv1a64", "hashing.mix64", "hashing.derive_row_seed"}
DIGEST_FUNCTIONS = {"hashing.digest_pair", "hashing.digest_pairs_bulk", "hashing.digest1_bulk"}

# Span fields, stored as lists so closing a span updates it in place.
NAME, LAYER, PARENT, REQUEST, START, END, SELF, ERROR = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self.counts: Counter = Counter()
        self.entries: Counter = Counter()  # span name -> entries into the layer
        self.layer_self_ns: Counter = Counter()
        self.name_self_ns: Counter = Counter()
        self.hook_ns = 0
        # (layer, exception name, parent layer, is a ValueError) -> count
        self.errors: Counter = Counter()
        self.oracle_pairs: set = set()
        self.build_keys: set = set()
        self.digest_keys: set = set()
        self._open: list[int] = []
        self._open_layers: list[str] = []
        self._covered: list[int] = []
        self._content_keys: dict[int, tuple] = {}
        from sketchsim.multiset import Multiset

        self.multiset_type = Multiset

    def _enter(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.entries[name] += 1
        self.spans.append([name, layer, parent, self.request, time.perf_counter_ns(), 0, 0, ""])
        self._open.append(index)
        self._open_layers.append(layer)
        self._covered.append(0)
        return index

    def _exit(self, index: int, error: str = "") -> None:
        end = time.perf_counter_ns()
        span = self.spans[index]
        duration = end - span[START]
        self_ns = duration - self._covered.pop()
        self._open.pop()
        self._open_layers.pop()
        span[END], span[SELF], span[ERROR] = end, self_ns, error
        self.layer_self_ns[span[LAYER]] += self_ns
        self.name_self_ns[span[NAME]] += self_ns
        if self._covered:
            self._covered[-1] += duration

    def _charge_hook(self, started: int) -> None:
        spent = time.perf_counter_ns() - started
        self.hook_ns += spent
        if self._covered:
            self._covered[-1] += spent

    @contextlib.contextmanager
    def root(self):
        """The span that covers one traced pass; calls outside any root span are not traced."""
        index = self._enter("bench.pass", ROOT_LAYER)
        try:
            yield
        finally:
            self._exit(index)

    def content_key(self, value, make) -> tuple:
        """make(value), cached per object; the cache keeps the object alive so ids stay unique."""
        cached = self._content_keys.get(id(value))
        if cached is None or cached[0] is not value:
            cached = (value, make(value))
            self._content_keys[id(value)] = cached
        return cached[1]

    def wall_ns(self) -> int:
        return sum(s[END] - s[START] for s in self.spans if s[LAYER] == ROOT_LAYER)

    def layer_metrics(self, untraced_wall_s: float) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json, from the recorded spans and counts."""
        c = self.counts
        seconds = lambda ns: ns / 1e9  # noqa: E731
        entries = lambda prefix: sum(n for name, n in self.entries.items() if name.startswith(prefix))  # noqa: E731
        wall_ns = self.wall_ns()
        attributed = sum(self.layer_self_ns[layer] for layer in LAYERS)
        rejections = sum(n for (layer, exc, _, _), n in self.errors.items()
                         if layer == "metrics" and exc == "IncompatibleSketchError")
        # The experiments layer records a pair as failed when a ValueError
        # escapes the truth or estimate call it makes for that pair.
        pair_failures = sum(n for (_, _, parent, value_error), n in self.errors.items()
                            if parent == "experiments" and value_error)
        oracle_calls = entries("multiset.")
        builds = sum(n for name, n in self.entries.items() if _is_build(name))
        return {
            "multiset.oracle.calls": oracle_calls,
            "multiset.oracle.self_s": seconds(self.layer_self_ns["multiset"]),
            "multiset.oracle_calls_per_pair": _ratio(oracle_calls, len(self.oracle_pairs)),
            "sketches.builds": builds,
            "sketches.self_s": seconds(self.layer_self_ns["sketches"]),
            "sketches.builds_per_distinct": _ratio(builds, len(self.build_keys)),
            "sketches.saturated": c["sketches.saturated"],
            "hashing.elements_digested": c["hashing.elements_digested"],
            "hashing.self_s": seconds(self.layer_self_ns["hashing"]),
            "hashing.digests_per_distinct": _ratio(c["hashing.elements_digested"], len(self.digest_keys)),
            "metrics.calls": entries("metrics."),
            "metrics.self_s": seconds(self.layer_self_ns["metrics"]),
            "metrics.rejections": rejections,
            "wire.encode.calls": self.entries["wire.encode"],
            "wire.encode.self_s": seconds(self.name_self_ns["wire.encode"]),
            "wire.decode.calls": self.entries["wire.decode"],
            "wire.decode.self_s": seconds(self.name_self_ns["wire.decode"]),
            "wire.bytes": c["wire.bytes"],
            "datasets.lines": c["datasets.lines"],
            "datasets.duplicates_merged": c["datasets.duplicates_merged"],
            **{
                f"datasets.{fn}.self_s": seconds(self.name_self_ns[f"datasets.{fn}"])
                for fn in ("ingest_triplets", "build_user_profiles", "read_profiles",
                           "generate_synthetic", "write_corpus", "load_corpus")
            },
            "experiments.self_s": seconds(self.layer_self_ns["experiments"]),
            "experiments.pair_failures": pair_failures,
            "cli.calls": entries("cli."),
            "cli.self_s": seconds(self.layer_self_ns["cli"]),
            "trace.overhead_ratio": _ratio(wall_ns / 1e9, untraced_wall_s),
            "trace.unattributed_s": seconds(wall_ns - attributed),
        }

    def write_spans(self, path) -> None:
        """One span per line: id, parent, request, layer, name, start, end, self (ns)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\trequest\tlayer\tname\tstart_ns\tend_ns\tself_ns\terror\n")
            for index, s in enumerate(self.spans):
                handle.write(f"{index}\t{s[PARENT]}\t{s[REQUEST]}\t{s[LAYER]}\t{s[NAME]}\t"
                             f"{s[START]}\t{s[END]}\t{s[SELF]}\t{s[ERROR]}\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _array_content(array: np.ndarray) -> tuple:
    return ("array", array.dtype.str, array.shape, hash(array.tobytes()))


def _multiset_content(multiset) -> tuple:
    return ("multiset", hash(frozenset(multiset.items())))


def _normalise(tracer: Tracer, value):
    if isinstance(value, np.ndarray):
        return tracer.content_key(value, _array_content)
    if isinstance(value, (list, tuple)):
        return tuple(_normalise(tracer, v) for v in value)
    if isinstance(value, tracer.multiset_type):
        return tracer.content_key(value, _multiset_content)
    return value


def _count_lines(source) -> int:
    """Non-blank lines of a triplet source, as ingest_triplets reads them."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "rb") as raw:
            gzipped = raw.read(2) == b"\x1f\x8b"
        with (gzip.open if gzipped else open)(source, "rb") as handle:
            return sum(1 for line in handle if line.rstrip(b"\r\n"))
    return -1  # an in-memory source is consumed by the call; not counted


class _Call:
    """A call's arguments as the caller passed them."""

    __slots__ = ("signature", "args", "kwargs")

    def __init__(self, signature, args, kwargs):
        self.signature, self.args, self.kwargs = signature, args, kwargs

    def get(self, name: str, position: int):
        if len(self.args) > position:
            return self.args[position]
        if name in self.kwargs:
            return self.kwargs[name]
        bound = self.signature.bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    def key(self, tracer: Tracer, skip: int = 0) -> tuple:
        """Content key of the arguments after the first `skip` positional ones."""
        positional = tuple(_normalise(tracer, v) for v in self.args[skip:])
        return positional + tuple((k, _normalise(tracer, v)) for k, v in sorted(self.kwargs.items()))


# Hooks run after a call returns, outside every span, and count what the
# call did. Only ingest_triplets' hook also runs for calls made inside
# its own layer, so parses inside read_profiles and load_corpus count.
def _oracle_hook(tracer, name, call, result):
    tracer.oracle_pairs.add((name, call.key(tracer)))


def _build_hook(tracer, name, call, result):
    tracer.counts["sketches.saturated"] += bool(getattr(result, "saturated", False))
    tracer.build_keys.add((name, call.key(tracer, skip=1)))  # skip cls


def _digest_hook(tracer, name, call, result):
    seed = call.get("seed", 0)
    if name == "hashing.digest_pair":
        elements = [call.get("element", 1)]
    else:
        elements = call.get("elements", 1)
    tracer.counts["hashing.elements_digested"] += len(elements)
    tracer.digest_keys.update(
        hash((seed, e.encode("utf-8") if isinstance(e, str) else e)) for e in elements
    )


def _encode_hook(tracer, name, call, result):
    tracer.counts["wire.bytes"] += len(result)


def _decode_hook(tracer, name, call, result):
    tracer.counts["wire.bytes"] += len(call.get("data", 0))


def _ingest_hook(tracer, name, call, result):
    lines = _count_lines(call.get("source", 0))
    if lines >= 0:
        tracer.counts["datasets.lines"] += lines
        tracer.counts["datasets.duplicates_merged"] += lines - len(result)


_HOOKS = {
    "multiset.dice": _oracle_hook,
    "multiset.cosine": _oracle_hook,
    "multiset.intersection_cardinality": _oracle_hook,
    "wire.encode": _encode_hook,
    "wire.decode": _decode_hook,
    "datasets.ingest_triplets": _ingest_hook,
    **{name: _digest_hook for name in DIGEST_FUNCTIONS},
}
_INTERNAL_HOOKS = {"datasets.ingest_triplets"}


def _is_build(name: str) -> bool:
    return name.startswith("sketches.") and name.rsplit(".", 1)[-1].startswith("from_")


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    hook = _build_hook if _is_build(name) else _HOOKS.get(name)
    internal_hook = hook if name in _INTERNAL_HOOKS else None
    signature = inspect.signature(fn)
    open_layers = tracer._open_layers
    errors = tracer.errors
    now = time.perf_counter_ns

    def run_hook(callback, args, kwargs, result):
        started = now()
        try:
            callback(tracer, name, _Call(signature, args, kwargs), result)
        except (KeyError, TypeError, AttributeError):
            # A changed signature loses the count, not the run; the
            # result file reports how often that happened.
            tracer.counts["trace.hook_errors"] += 1
        tracer._charge_hook(started)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not open_layers:  # outside every traced pass, e.g. the benchmark's checks
            return fn(*args, **kwargs)
        if open_layers[-1] == layer:
            result = fn(*args, **kwargs)
            if internal_hook is not None:
                run_hook(internal_hook, args, kwargs, result)
            return result
        parent_layer = open_layers[-1]
        index = tracer._enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer._exit(index, type(exc).__name__)
            errors[(layer, type(exc).__name__, parent_layer, isinstance(exc, ValueError))] += 1
            raise
        tracer._exit(index)
        if hook is not None:
            run_hook(hook, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap the layer functions and rebind every reference the program holds.

    Returns the names of the wrapped functions. Call once per process.
    """
    originals: dict[int, tuple] = {}
    wrapped = []
    for layer in LAYERS:
        module = importlib.import_module(f"sketchsim.{layer}")
        for attr, value in list(vars(module).items()):
            qualified = f"{layer}.{attr}"
            if attr.startswith("_") or qualified in UNWRAPPED or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                originals[id(value)] = (value, _wrap(tracer, layer, qualified, value))
                wrapped.append(qualified)
            elif inspect.isclass(value):
                for method, member in list(vars(value).items()):
                    if isinstance(member, classmethod) and not method.startswith("_"):
                        name = f"{layer}.{attr}.{method}"
                        setattr(value, method, classmethod(_wrap(tracer, layer, name, member.__func__)))
                        wrapped.append(name)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "sketchsim" or module_name.startswith("sketchsim.")):
            continue
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            entry = originals.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    entry = originals.get(id(item))
                    if entry is not None and entry[0] is item:
                        value[key] = entry[1]
    return wrapped
