import os
import warnings
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

import sketchsim
from sketchsim import (
    COUNTER_MAX,
    companion_sharing,
    derive_row_seed,
    digest_pair,
    generate_synthetic,
    random_multiset,
)
from sketchsim.hashing import _digests, _probe_positions, _start_states
from sketchsim.multiset import as_element


# When a property fails, Hypothesis's pytest plugin imports its patch writer (and libcst) inside that
# test's filterwarnings("error"), where a DeprecationWarning from libcst's own imports becomes an
# INTERNALERROR that ends the session. Importing it here once, outside every test, lets its import
# warnings pass; every warning a test raises stays an error.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def pytest_collection_modifyitems(items):
    """Every warning in a test under this directory is an error, so a numpy overflow or a deprecation fails it."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


# One pinned seed per corpus so every run of the suite sees identical data.
SD_SEED = 7
REAL_LIKE_SEED = 11
RD_LIKE_SEED = 5


def make_pair_corpus(seed, targets, distinct_range=(60, 75), count_range=(1, 3), prefix="r"):
    """Random multiset pairs hitting the given similarity targets.

    Profiles mimic listening histories: ~60-75 distinct 10-character
    ids with small play counts. Ground truth is whatever the oracle
    says for the constructed pair, not the target.
    """
    rng = np.random.default_rng(seed)
    corpus = []
    for i, target in enumerate(targets):
        distinct = int(rng.integers(*distinct_range))
        base = random_multiset(rng, distinct, 10, count_range=count_range)
        shared = int(round(float(target) * base.cardinality()))
        other = companion_sharing(rng, base, shared, 10, count_range=count_range)
        corpus.append((f"{prefix}{i:04d}", base, other))
    return corpus


def sequential_table(params, multiset):
    """The table of a CBF or CMS shape, filled one element, row and probe at a time in Python ints.

    An independent reference for every build path: each cell comes from
    `digest_pair` and the index formula, and each add saturates on its own.
    """
    table = [[0] * params.width for _ in range(params.depth)]
    for row in range(params.depth):
        row_seed = derive_row_seed(params.seed, row)
        for element, count in multiset.items():
            h1, h2 = digest_pair(row_seed, element)
            for probe in range(params.hash_count):
                cell = (h1 + probe * h2) % 2**64 % params.width
                table[row][cell] = min(table[row][cell] + count, COUNTER_MAX)
    return np.array(table, dtype=np.uint32)


def find_collision_free_seed(elements, size, hash_count=1, start_seed=0, max_tries=100_000):
    """The first seed from `start_seed` under which no two distinct elements share a cell.

    It builds configurations where sketch similarity is provably exact.
    An element meeting itself (two of its own probes on one cell) is
    allowed; only cross-element sharing is ruled out.
    """
    if size < 1 or hash_count < 1:
        raise ValueError(f"size and hash_count must be >= 1, got {size} and {hash_count}")
    keys = list(dict.fromkeys(as_element(e) for e in elements))  # a repeated element only meets itself
    for seed in range(start_seed, start_seed + max_tries):
        claimed = set()
        digests = _digests(_start_states([seed], hash_count), hash_count, keys)
        for cells in _probe_positions(digests, hash_count, size)[:, 0].T.tolist():
            if not claimed.isdisjoint(cells):
                break  # the first cell two elements share rules the seed out
            claimed.update(cells)
        else:
            return seed
    raise RuntimeError(f"no collision-free seed found in {max_tries} tries "
                       f"(size={size}, hash_count={hash_count}, {len(keys)} distinct elements)")


@pytest.fixture(scope="session")
def sd_corpus():
    """The 1001-pair synthetic corpus with evenly spaced Dice targets."""
    return generate_synthetic(SD_SEED)


@pytest.fixture(scope="session", params=[20, 200], ids=lambda distinct: f"D{distinct}")
def sized_corpus(request):
    """(D, a 301-pair synthetic corpus of about D distinct elements per multiset)."""
    return request.param, generate_synthetic(SD_SEED, 301, request.param)


@pytest.fixture(scope="session")
def real_like_corpus():
    """500 listening-history-like pairs with uniformly random similarity."""
    rng = np.random.default_rng(REAL_LIKE_SEED)
    targets = rng.uniform(0.0, 1.0, size=500)
    return make_pair_corpus(REAL_LIKE_SEED + 1, targets)


@pytest.fixture(scope="session")
def rd_like_corpus():
    """800 pairs whose similarity distribution mirrors the real data set:

    most comparisons nearly dissimilar, a sparse middle band, and a tail
    of genuinely similar pairs (cf. the sorted similarity plots).
    """
    rng = np.random.default_rng(RD_LIKE_SEED)
    targets = np.concatenate(
        [
            rng.uniform(0.0, 0.20, size=600),
            rng.uniform(0.20, 0.45, size=60),
            rng.uniform(0.45, 1.0, size=140),
        ]
    )
    return make_pair_corpus(RD_LIKE_SEED + 1, targets, prefix="rd")


@pytest.fixture
def text_file(tmp_path):
    """A function that writes a str to triplets.tsv under tmp_path as UTF-8, no newline translated, and returns its path."""
    def write(text):
        path = tmp_path / "triplets.tsv"
        path.write_bytes(text.encode("utf-8"))
        return path
    return write


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child Python that imports the same sketchsim as this process, installed or not."""
    package_root = str(Path(sketchsim.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
