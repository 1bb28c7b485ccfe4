"""Seeded listening-history generator for the sender and receiver workloads.

The shape of an input is fixed: the number of users, each user's number
of distinct songs and the number of duplicate (user, song) lines do not
depend on the seed, so runs on different seeds do the same amount of
work and report the same counts. The seed draws everything else: user
ids, which songs each user plays (Zipf popularity over the song
catalogue) and the play counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SONG_CATALOGUE = 50_000
ZIPF_EXPONENT = 1.0
SHAPE_SEED = 20180518
MAX_DISTINCT = 1_500
DUPLICATE_SHARE = 0.001
MIN_DISTINCT = 20
_ID_ALPHABET = np.frombuffer(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", dtype=np.uint8)


@dataclass
class Triplets:
    """One generated input: its TSV lines and the profiles they must yield."""

    lines: list[str]
    profiles: dict[str, dict[str, int]]  # user -> song -> summed play count
    duplicate_lines: int

    def kept(self, min_distinct: int = MIN_DISTINCT) -> dict[str, dict[str, int]]:
        return {user: songs for user, songs in self.profiles.items() if len(songs) >= min_distinct}

    def properties(self, min_distinct: int = MIN_DISTINCT) -> dict[str, float]:
        """Measured properties; repeat_digest_share is the share of user-song
        digests a per-user sketch pass repeats for songs it already hashed."""
        kept = self.kept(min_distinct)
        pairs = sum(len(songs) for songs in kept.values())
        distinct = len({song for songs in kept.values() for song in songs})
        return {
            "lines": len(self.lines),
            "users": len(self.profiles),
            "users_kept": len(kept),
            "user_song_pairs": pairs,
            "distinct_songs": distinct,
            "duplicate_lines": self.duplicate_lines,
            "repeat_digest_share": 1 - distinct / pairs if pairs else 0.0,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("".join(self.lines))


def distinct_counts(users: int) -> np.ndarray:
    """Distinct songs per user: lognormal, median about 33, the same for every seed."""
    sizes = np.random.default_rng(SHAPE_SEED).lognormal(mean=3.5, sigma=1.2, size=users)
    return np.clip(sizes.astype(np.int64), 1, MAX_DISTINCT)


def _ids(rng: np.random.Generator, count: int, prefix: str, length: int) -> list[str]:
    chars = _ID_ALPHABET[rng.integers(0, len(_ID_ALPHABET), size=(count, length))]
    ids = [prefix + row.tobytes().decode("ascii") for row in chars]
    if len(set(ids)) != count:
        raise RuntimeError("generated ids collide; draw with a longer id")
    return ids


def _distinct_songs(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    chosen = np.empty(0, dtype=np.int64)
    while len(chosen) < size:
        draws = np.searchsorted(cdf, rng.random(2 * size + 8), side="right")
        merged = np.concatenate([chosen, draws])
        _, first = np.unique(merged, return_index=True)
        chosen = merged[np.sort(first)]
    return chosen[:size]


def generate(seed: int, users: int) -> Triplets:
    """`users` listening histories as ``user<TAB>song<TAB>count`` lines.

    Lines are grouped by user in random order within each user; a fixed
    share of lines repeats an earlier (user, song) of the same user with
    a further play count, which ingestion must sum.
    """
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, SONG_CATALOGUE + 1) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    songs = _ids(rng, SONG_CATALOGUE, "SO", 16)
    user_ids = [bytes(rng.integers(0, 256, size=20, dtype=np.uint8)).hex() for _ in range(users)]
    if len(set(user_ids)) != users:
        raise RuntimeError("generated user ids collide")
    sizes = distinct_counts(users)
    duplicates = round(DUPLICATE_SHARE * int(sizes.sum()))
    duplicate_users = np.bincount(rng.integers(0, users, size=duplicates), minlength=users)
    lines: list[str] = []
    profiles: dict[str, dict[str, int]] = {}
    for user, size, extra in zip(user_ids, sizes, duplicate_users):
        picked = _distinct_songs(rng, cdf, int(size))
        counts = rng.geometric(0.4, size=len(picked))
        block = [(songs[s], int(c)) for s, c in zip(picked, counts)]
        repeats = rng.integers(0, len(block), size=int(extra))
        block += [(block[r][0], int(c)) for r, c in zip(repeats, rng.geometric(0.4, size=int(extra)))]
        profile: dict[str, int] = {}
        for index in rng.permutation(len(block)):
            song, count = block[index]
            lines.append(f"{user}\t{song}\t{count}\n")
            profile[song] = profile.get(song, 0) + count
        profiles[user] = profile
    return Triplets(lines, profiles, duplicates)

