"""Command-line front end: gen, ingest, sketch, compare, grid, threshold.

Machine-readable artifacts go only to the explicit output paths (or to
stdout for `compare`); progress and summaries go to stderr. Exit codes:
0 success, 1 data error (or out of memory), 2 sketch compatibility error, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import datasets, experiments, metrics, sketches, wire
from .hashing import SEED_MAX
from .multiset import Multiset

EXIT_OK = 0
EXIT_DATA = 1
EXIT_COMPAT = 2
EXIT_USAGE = 64

# Recommended defaults: one-hash CBF of length 128, Dice, threshold 0.6.
DEFAULT_KIND = "cbf"
DEFAULT_LENGTH = 128
DEFAULT_THRESHOLD = 0.6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value <= SEED_MAX:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("expected a non-empty list of integers >= 1")
    return values


def _threshold(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"threshold must be in (0, 1), got {value}")
    return value


# shape flag -> the SketchParams field it sets; the flags default to None so a given one is told apart
_SHAPE_FLAGS = {"kind": "kind", "length": "width", "depth": "depth", "hashes": "hash_count", "seed": "seed"}
_DEFAULT_SHAPE = sketches.SketchParams(DEFAULT_KIND, DEFAULT_LENGTH)  # depth 1, one hash, seed 0


def _add_sketch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", choices=("cbf", "cms"), help=f"sketch kind (default {DEFAULT_KIND})")
    parser.add_argument("--length", "--width", dest="length", type=_positive_int,
                        help=f"CBF length n / CMS width w (default {DEFAULT_LENGTH})")
    parser.add_argument("--hashes", type=_positive_int, help="hash functions k (CBF only, default 1)")
    parser.add_argument("--depth", type=_positive_int, help="rows d (CMS only, default 1)")
    parser.add_argument("--seed", type=_seed, help="shared hash seed (default 0)")


def _sketch_params(parser: argparse.ArgumentParser, args: argparse.Namespace,
                   base: sketches.SketchParams = _DEFAULT_SHAPE) -> sketches.SketchParams:
    """The shape the flags give, each flag left out as it is in `base` (the default shape unless given)."""
    given = {field: getattr(args, flag) for flag, field in _SHAPE_FLAGS.items() if getattr(args, flag) is not None}
    try:
        return dataclasses.replace(base, **given)
    except ValueError as exc:  # --depth with cbf, --hashes with cms
        parser.error(str(exc))


def build_parser() -> _Parser:
    parser = _Parser(prog="sketchsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus with controlled Dice targets")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--pairs", type=_positive_int, default=1001)
    p.add_argument("--unique", type=_positive_int, default=67)
    p.add_argument("--strlen", type=_positive_int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("ingest", help="parse and filter listening-history triplets")
    p.add_argument("triplets", type=Path, help="TSV file: user<TAB>song<TAB>count (gzip ok)")
    p.add_argument("--out", type=Path, required=True, help="filtered profiles TSV")
    p.add_argument("--min-distinct", type=_nonneg_int, default=50)
    p.set_defaults(run=_cmd_ingest)

    p = sub.add_parser("sketch", help="sketch one profile into a wire envelope")
    p.add_argument("profile", type=Path, help="profile TSV")
    p.add_argument("--out", type=Path, required=True, help="envelope output path")
    p.add_argument("--user", help="user id when the TSV holds several profiles")
    _add_sketch_flags(p)
    p.set_defaults(run=_cmd_sketch)

    p = sub.add_parser("compare", help="similarity of two profiles or two envelopes")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--user-a", help="user id to pick from a multi-profile TSV")
    p.add_argument("--user-b", help="user id to pick from b")
    p.add_argument("--metric", choices=list(metrics.METRICS), default="dice")
    p.add_argument("--truth", action="store_true", help="also print the exact score (profile inputs only)")
    _add_sketch_flags(p)
    p.set_defaults(run=_cmd_compare)

    p = sub.add_parser("grid", help="RMSE sweep over sketch dimensions")
    p.add_argument("--corpus", type=Path, required=True, help="corpus manifest.json")
    p.add_argument("--out", type=Path, required=True, help="grid CSV output")
    p.add_argument("--kind", choices=("cbf", "cms"), default=DEFAULT_KIND)
    p.add_argument("--dims", type=_int_list, default=list(experiments.DEFAULT_DIMS),
                   help="comma-separated lengths/widths")
    p.add_argument("--depths", type=_int_list, default=list(experiments.DEFAULT_DEPTHS),
                   help="comma-separated hash counts (cbf) or row counts (cms)")
    p.add_argument("--metric", choices=list(metrics.METRICS), default="dice")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(run=_cmd_grid)

    p = sub.add_parser("threshold", help="classification report at a relevance threshold")
    p.add_argument("--corpus", type=Path, required=True, help="corpus manifest.json")
    p.add_argument("--out", type=Path, required=True, help="report CSV output")
    p.add_argument("--threshold", type=_threshold, default=DEFAULT_THRESHOLD)
    p.add_argument("--metric", choices=list(metrics.METRICS), default="dice")
    _add_sketch_flags(p)
    p.set_defaults(run=_cmd_threshold)

    return parser


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _log_failures(failures: list[experiments.PairFailure], pairs: int) -> None:
    if failures:
        _log(f"{len(failures)} of {pairs} pairs failed (first: {failures[0].pair_id}: {failures[0].reason})")


def _cmd_gen(parser, args) -> int:
    corpus = datasets.generate_synthetic(args.seed, args.pairs, args.unique, args.strlen)
    manifest = datasets.write_corpus(
        args.out, corpus, seed=args.seed, target_unique=args.unique, string_length=args.strlen
    )
    _log(f"wrote {manifest} ({len(corpus)} pairs, base cardinality {corpus[0][1].cardinality()})")
    return EXIT_OK


def _cmd_ingest(parser, args) -> int:
    profiles = datasets.read_profiles(args.triplets)
    total_users = len(profiles)
    profiles = {user: profile for user, profile in profiles.items() if profile.distinct_count() >= args.min_distinct}
    distinct_songs = len(set().union(*map(Multiset.elements, profiles.values())))
    total_plays = sum(profile.cardinality() for profile in profiles.values())
    datasets.write_profiles(args.out, profiles)
    _log(
        f"kept {len(profiles)} of {total_users} users "
        f"(min {args.min_distinct} distinct songs), "
        f"{distinct_songs} distinct songs, {total_plays} recorded plays -> {args.out}"
    )
    return EXIT_OK


def _load_profile(path: Path, user: str | None) -> Multiset:
    profiles = datasets.read_profiles(path)
    if user is not None:
        if user not in profiles:
            raise ValueError(f"user {user!r} not found in {path}")
        return profiles[user]
    if not profiles:
        raise ValueError(f"{path} holds no profiles")
    if len(profiles) != 1:
        sample = ", ".join(list(profiles)[:5])
        raise ValueError(
            f"{path} holds {len(profiles)} profiles; pick one with --user (e.g. {sample})"
        )
    return next(iter(profiles.values()))


def _is_envelope(path: Path) -> bool:
    with open(path, "rb") as handle:
        return handle.read(4) == wire.MAGIC


def _cmd_sketch(parser, args) -> int:
    params = _sketch_params(parser, args)
    profile = _load_profile(args.profile, args.user)
    sketch = params.sketch(profile)
    if sketch.saturated:
        _log("warning: at least one counter saturated")
    data = wire.encode(sketch)
    args.out.write_bytes(data)
    _log(f"wrote {args.out} ({len(data)} bytes)")
    return EXIT_OK


def _cmd_compare(parser, args) -> int:
    envelopes = _is_envelope(args.a), _is_envelope(args.b)
    if all(envelopes):
        if args.truth:
            parser.error("--truth needs profile inputs; envelopes carry no exact counts")
        if args.user_a is not None or args.user_b is not None:
            parser.error("--user-a and --user-b pick profiles; an envelope holds one sketch")
        a = wire.decode(args.a.read_bytes())
        b = wire.decode(args.b.read_bytes())
        witness = metrics.check_witnesses(metrics.witness_of(a), metrics.witness_of(b))
        # shape flags given with envelopes state what the envelopes must be: the envelopes' shape with them applied
        metrics.check_witnesses(witness, _sketch_params(parser, args, witness))
        if witness.kind == "bf":
            raise ValueError("plain Bloom filter envelopes carry no counts to compare")
        print(f"estimate\t{metrics.score(args.metric, a, b)!r}")
        return EXIT_OK
    params = _sketch_params(parser, args)  # checked before the inputs are
    if any(envelopes):
        raise ValueError("cannot compare an envelope with a profile; sketch the profile first")
    left = _load_profile(args.a, args.user_a)
    right = _load_profile(args.b, args.user_b)
    estimate = metrics.score(args.metric, params.sketch(left), params.sketch(right))
    print(f"estimate\t{estimate!r}")
    if args.truth:
        oracle, _, _, _ = metrics.METRICS[args.metric]
        truth = oracle(left, right)
        print(f"truth\t{truth!r}")
        print(f"error\t{estimate - truth!r}")
    return EXIT_OK


def _cmd_grid(parser, args) -> int:
    try:
        grid = experiments.GridSpec(args.kind, args.dims, args.depths, metric=args.metric, seed=args.seed)
    except ValueError as exc:  # a dim or depth past the uint32 header fields
        parser.error(str(exc))
    corpus = datasets.load_corpus(args.corpus)
    _log(f"grid: {args.kind} {len(grid.dims)}x{len(grid.depths)} cells over {len(corpus)} pairs")
    failures: list[experiments.PairFailure] = []
    cells = experiments.run_grid(corpus, grid, failures)
    _log_failures(failures, len(corpus))
    for (dim, depth), value in cells.items():
        _log(f"  dim={dim} depth={depth} rmse={'n/a' if value is None else f'{value:.6f}'}")
    experiments.write_grid_csv(args.out, cells, grid)
    _log(f"wrote {args.out}")
    return EXIT_OK


def _cmd_threshold(parser, args) -> int:
    params = _sketch_params(parser, args)
    corpus = datasets.load_corpus(args.corpus)
    run = experiments.run_pairwise(corpus, params, args.metric)
    _log_failures(run.failures, len(corpus))
    report = experiments.threshold_report(run.results, args.threshold)
    experiments.write_threshold_csv(args.out, report)
    _log(
        f"threshold {report.threshold}: tp={report.true_positives} fp={report.false_positives} "
        f"tn={report.true_negatives} fn={report.false_negatives} "
        f"max_overshoot={report.max_overshoot:.6f} -> {args.out}"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(parser, args)
    except SystemExit as exit_:  # argparse and parser.error report usage problems themselves
        return int(exit_.code or 0)
    except metrics.IncompatibleSketchError as exc:
        _log(f"sketchsim: incompatible sketches: {', '.join(exc.mismatched_fields)}")
        return EXIT_COMPAT
    except (ValueError, OSError, datasets.GenerationError) as exc:
        _log(f"sketchsim: error: {exc}")
        return EXIT_DATA
    except MemoryError as exc:  # numpy's message names the size it asked for
        _log(f"sketchsim: error: out of memory{f': {exc}' if str(exc) else ''}")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
