"""Corpus construction: controlled synthetic pairs and play-count ingestion.

A corpus is one list of (pair_id, a, b) triples: `generate_synthetic`
returns it, `write_corpus` writes it and `load_corpus` reads it back.
The generator draws one random base multiset plus, for each target
similarity t, a companion that shares floor(t * T) units of mass with
the base (T = base cardinality) and is padded to cardinality T with
fresh random elements. The achieved Dice is then exactly shared/T; the
manifest's score is recomputed by the exact oracle as it is written.
The padding is drawn in rounds: one `rng.integers` call with per-column
bounds draws several entries' counts and characters at once. numpy's
bounded draw takes the same values from the bit stream, element by
element, as one scalar call per entry, so the values and the generator
state equal the per-entry calls'. A round with a repeated string is
rewound and its first entry redrawn through `_fresh_string`.

Listening histories arrive as a file, plain or gzip, of
``user<TAB>song<TAB>count`` lines. `read_profiles`, their one reader,
takes the file's path, checks each line once and adds its count
straight into its user's profile: duplicate lines are summed and
counted, never dropped, and anything malformed is a TripletParseError
naming its line. It reads bytes in blocks of `_BLOCK_LINES` lines,
checks each block's UTF-8 with one decode of the joined block, and
splits and checks each line as bytes; songs stay bytes from file to
Multiset, and each distinct user id is decoded once, at the end.
`write_profiles` writes such a file as bytes and refuses, before it
opens the file, any map it could not read back.
A manifest is checked as it is loaded, sizes included.
"""

from __future__ import annotations

import codecs
import gzip
import json
import logging
import reprlib
import zlib
from itertools import islice
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np

from .multiset import COUNT_MAX, Multiset, dice

logger = logging.getLogger(__name__)

# 0x21..0x7E: printable ASCII without space/tab, so generated elements
# survive the TSV profile format unescaped.
_ALPHABET = np.frombuffer(bytes(range(0x21, 0x7F)), dtype=np.uint8)
_FRESH_TRIES = 1000
_DRAW_BLOCK = 2**16  # draws one padding call holds, unless one entry alone needs more
_BLOCK_LINES = 1024  # triplet lines read, UTF-8-checked and parsed together

MANIFEST_SCHEMA = "sketchsim-corpus-v1"
MANIFEST_NAME = "manifest.json"
PROFILES_NAME = "profiles.tsv"
BASE_ID = "base"

Corpus = Sequence[tuple[str, Multiset, Multiset]]  # (pair_id, a, b) triples, the one form of a corpus


class GenerationError(RuntimeError):
    """Synthetic generation cannot satisfy the requested shape."""


class TripletParseError(ValueError):
    """A triplet line failed to parse; carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {reason}")


def _random_string(rng: np.random.Generator, length: int) -> bytes:
    return bytes(_ALPHABET[rng.integers(0, len(_ALPHABET), size=length)])


def _fresh_string(rng: np.random.Generator, length: int, taken: set[bytes]) -> bytes:
    for _ in range(_FRESH_TRIES):
        candidate = _random_string(rng, length)
        if candidate not in taken:
            taken.add(candidate)
            return candidate
    raise GenerationError(
        f"could not draw a fresh {length}-character string after {_FRESH_TRIES} tries; "
        "the string space is too small for the requested corpus"
    )


def _check_shape(string_length: int, count_range: tuple[int, int]) -> tuple[int, int]:
    """The count range's bounds, once the string length and the range are checked, before any draw."""
    if string_length < 1:
        raise ValueError(f"string_length must be >= 1, got {string_length}")
    low, high = count_range
    if low < 1 or high < low or high >= 2**63:  # counts are drawn as int64
        raise ValueError(f"count_range must satisfy 1 <= low <= high < 2**63, got {count_range}")
    return low, high


def random_multiset(
    rng: np.random.Generator,
    distinct: int,
    string_length: int = 10,
    count_range: tuple[int, int] = (1, 1),
    total: int | None = None,
) -> Multiset:
    """Multiset of `distinct` fresh random strings with random counts.

    With `total` given, counts are nudged up or down (never below 1)
    until the cardinality is exactly `total`.
    """
    if distinct < 1:
        raise ValueError(f"distinct must be >= 1, got {distinct}")
    low, high = _check_shape(string_length, count_range)
    # 94 ** bit_length(4 * distinct) > 4 * distinct, so a longer string's power need not be formed
    if 4 * distinct > len(_ALPHABET) ** min(string_length, (4 * distinct).bit_length()):
        raise GenerationError(
            f"{distinct} distinct strings of length {string_length} would exhaust the string space"
        )
    taken: set[bytes] = set()
    elements = [_fresh_string(rng, string_length, taken) for _ in range(distinct)]
    counts = [int(c) for c in rng.integers(low, high + 1, size=distinct)]
    if total is not None:
        if total < distinct:
            raise GenerationError(f"total {total} cannot cover {distinct} elements with count >= 1")
        counts = _adjust_to_total(counts, total)
    return Multiset(zip(elements, counts))


def _adjust_to_total(counts: list[int], total: int) -> list[int]:
    difference = total - sum(counts)
    i = 0
    while difference != 0:
        slot = i % len(counts)
        if difference > 0:
            counts[slot] += 1
            difference -= 1
        elif counts[slot] > 1:
            counts[slot] -= 1
            difference += 1
        i += 1
    return counts


def companion_sharing(
    rng: np.random.Generator,
    base: Multiset,
    shared_mass: int,
    string_length: int = 10,
    count_range: tuple[int, int] = (1, 1),
) -> Multiset:
    """Companion of `base` with the same cardinality sharing exactly `shared_mass`.

    The shared part takes base elements (in random order, possibly one
    of them partially); the rest is padded with fresh strings absent
    from the base, so the multiset intersection is exactly `shared_mass`.
    """
    total = base.cardinality()
    if not 0 <= shared_mass <= total:
        raise ValueError(f"shared_mass must be in [0, {total}], got {shared_mass}")
    return _companion(rng, sorted(base.items()), total, shared_mass, string_length,
                      *_check_shape(string_length, count_range))


def _companion(rng: np.random.Generator, items: list[tuple[bytes, int]], total: int, shared_mass: int,
               string_length: int, low: int, high: int) -> Multiset:
    """`companion_sharing` of the base with these sorted items; each base element and fresh string enters once."""
    entries: dict[bytes, int] = {}
    remaining = shared_mass
    for index in rng.permutation(len(items)):
        if remaining == 0:
            break
        element, count = items[index]
        entries[element] = min(count, remaining)
        remaining -= entries[element]
    taken = {element for element, _ in items}
    padding = total - shared_mass
    # A padding entry's draws are its count, then its string's characters. A draw from low up to high
    # is low plus a draw from 0 up to high - low, so each column is drawn from 0 up to its span.
    width = 1 + string_length
    spans = np.full(width, len(_ALPHABET) - 1, np.int64)
    spans[0] = high - low
    while padding > 0:
        # Each count is at most `high`, so all but the last of these entries add less than `padding`:
        # every one is consumed, and the row-major draws are those of the per-entry scalar calls.
        needed = min(-(-padding // high), max(1, _DRAW_BLOCK // width))
        state = rng.bit_generator.state
        draws = rng.integers(0, spans, size=(needed, width), endpoint=True)
        text = _ALPHABET[draws[:, 1:]].tobytes()
        strings = [text[start:start + string_length] for start in range(0, len(text), string_length)]
        counts = (draws[:, 0] + low).tolist()
        if len(set(strings)) < needed or not taken.isdisjoint(strings):
            # a repeat: rewind and take one entry the per-entry way, its count drawn before its string
            rng.bit_generator.state = state
            counts, strings = [int(rng.integers(low, high + 1))], [_fresh_string(rng, string_length, taken)]
        for string, count in zip(strings, counts):
            entries[string] = min(count, padding)
            padding -= entries[string]
        taken.update(strings)
    return Multiset._from_checked(entries)


def generate_synthetic(
    seed: int,
    pair_count: int = 1001,
    target_unique: int = 67,
    string_length: int = 10,
) -> Corpus:
    """Synthetic corpus: pairs ("p0000", base, companion), ... with evenly spaced Dice targets.

    Pair i targets i / (pair_count - 1), from 0 to 1 inclusive, and
    every pair shares the one base. The base cardinality is forced
    large enough that every target is achievable within 1/T and the
    achieved values cover [0, 1] without gaps larger than 2/pair_count.
    The defaults reproduce a corpus of ~67 distinct 10-character strings
    per multiset with 1001 similarity steps.
    """
    if pair_count < 1:
        raise ValueError(f"pair_count must be >= 1, got {pair_count}")
    rng = np.random.default_rng(seed)
    total = max(15 * target_unique, pair_count + 3)
    base = random_multiset(rng, target_unique, string_length, count_range=(1, 29), total=total)
    cardinality = base.cardinality()
    items = sorted(base.items())  # once per corpus, not once per companion
    steps = pair_count - 1
    corpus = []
    for i in range(pair_count):
        shared = (i * cardinality) // steps if steps else 0
        corpus.append((f"p{i:04d}", base, _companion(rng, items, cardinality, shared, string_length, 1, 29)))
    return corpus


def read_profiles(source: str | Path) -> dict[str, Multiset]:
    """One multiset per user (song -> summed plays) from a file of ``user<TAB>song<TAB>count`` lines, in one pass.

    The file may be gzip-compressed. Users and each user's songs keep
    first-seen order; blank lines are skipped. A count is ASCII digits
    between 1 and COUNT_MAX. A malformed line, undecodable UTF-8 included,
    raises TripletParseError with its number. Duplicate (user, song)
    lines are summed and counted in one warning per call; a sum above
    COUNT_MAX is a parse error at the line that crosses it.
    """
    with open(source, "rb") as raw:
        magic = raw.read(2)
    handle = (gzip.open if magic == b"\x1f\x8b" else open)(source, "rb")  # type: ignore[operator]
    songs_by_user: dict[bytes, dict[bytes, int]] = {}
    duplicate_lines = line_number = 0
    first_duplicates: list[str] = []
    last_user, songs = None, {}
    with handle:
        while True:
            block: list[bytes] = []
            broken = ""  # why the line after the block's last one cannot be read
            try:
                block.extend(islice(handle, _BLOCK_LINES))  # keeps the lines read before a damaged stream raised
            except (EOFError, zlib.error) as exc:
                broken = f"compressed stream is damaged: {exc}"
            if not line_number and block and block[0].startswith(codecs.BOM_UTF8):
                block[0] = block[0][3:]  # one byte-order mark dropped, from line 1 only
            joined = b"".join(block)
            try:
                joined.decode("utf-8")  # the block's one UTF-8 check; its ids stay bytes
            except UnicodeDecodeError as exc:  # lines end at LF, so no byte sequence spans two lines
                broken = f"not UTF-8: byte {joined[exc.start]:#04x} ({exc.reason})"
                del block[joined.count(b"\n", 0, exc.start):]  # the lines before it are parsed first
            for line_number, line in enumerate(block, line_number + 1):
                try:  # split first: only the count field or a blank or bad line needs rstrip
                    user, song, count_text = line.split(b"\t")
                except ValueError:
                    if not line.rstrip(b"\r\n"):
                        continue
                    fields = len(line.split(b"\t"))
                    raise TripletParseError(line_number, f"expected 3 tab-separated fields, got {fields}") from None
                if not user or not song:
                    raise TripletParseError(line_number, "empty user or song id")
                count_text = count_text.rstrip(b"\r\n")
                try:
                    # bytes.isdigit takes ASCII digits only; int() alone would also take "1_000" and " 7 "
                    if not count_text.isdigit():
                        raise ValueError(count_text)
                    count = int(count_text)  # still raises on a digit string past int's length limit
                except ValueError:
                    raise TripletParseError(line_number, f"play count is not an integer: "
                                                         f"{_brief(count_text.decode())}") from None
                if not 1 <= count <= COUNT_MAX:
                    raise TripletParseError(line_number, f"play count must be in [1, {COUNT_MAX}], got {_brief(count)}")
                if user != last_user:  # a user's lines mostly come together
                    last_user, songs = user, songs_by_user.setdefault(user, {})
                if song in songs:
                    duplicate_lines += 1
                    if len(first_duplicates) < 3:
                        first_duplicates.append(f"line {line_number} {_brief((user.decode(), song.decode()))}")
                    count += songs[song]
                    if count > COUNT_MAX:
                        raise TripletParseError(line_number, f"summed play count of "
                                                             f"{_brief((user.decode(), song.decode()))} exceeds {COUNT_MAX}")
                songs[song] = count
            if broken:
                raise TripletParseError(line_number + 1, broken)
            if len(block) < _BLOCK_LINES:
                break
    if duplicate_lines:
        logger.warning(
            "%d duplicate (user, song) lines; counts summed (first: %s)", duplicate_lines, ", ".join(first_duplicates)
        )
    return {user.decode(): Multiset._from_checked(songs) for user, songs in songs_by_user.items()}


def write_profiles(destination: str | Path, profiles: Mapping[str, Multiset]) -> None:
    """Write profiles to a triplet TSV file, one user's lines at a time, songs sorted so output is reproducible.

    A map `read_profiles` would not read back as written is a ValueError
    naming the user id, raised before the file is opened: a user id that
    is not a str or is empty, a tab or LF in any id, an id that is not
    UTF-8, a profile that is not a `Multiset` or is empty, or a first
    user id that begins with U+FEFF.
    """
    for user, profile in profiles.items():
        if not isinstance(profile, Multiset):
            raise ValueError(f"user id {_brief(user)} cannot be written: its profile is a "
                             f"{type(profile).__name__}, not a Multiset")
        _check_ids(user, profile._entries)
    first = next(iter(profiles), "")
    if first.startswith("\ufeff"):  # read_profiles drops one byte-order mark from line 1
        raise ValueError(f"user id {_brief(first)} cannot be written first: it begins with U+FEFF")
    with open(destination, "wb") as handle:
        for user, profile in profiles.items():
            entries = profile._entries
            songs = sorted(entries)  # the keys are unique, so this is the order of the sorted items
            prefix = user.encode("utf-8") + b"\t"
            lines = (b"\n" + prefix).join(map(b"%s\t%d".__mod__, zip(songs, map(entries.__getitem__, songs))))
            handle.write(prefix + lines + b"\n")


def _check_ids(user: object, songs: Collection[bytes]) -> None:
    """A ValueError naming a user whose ids or profile `read_profiles` would not read back as written."""
    if not songs:
        raise ValueError(f"user id {_brief(user)} cannot be written: its profile is empty")
    # a lone surrogate becomes bytes no UTF-8 decoder takes, and an id that is not a str is refused as empty
    ids = [user.encode("utf-8", "surrogatepass") if isinstance(user, str) else b"", *songs]
    joined = b"\n".join(ids)  # ASCII separators: the join is UTF-8 iff every id is
    try:
        if not ids[0] or b"\t" in joined or joined.count(b"\n") >= len(ids):
            raise ValueError
        joined.decode("utf-8")
    except ValueError:  # UnicodeDecodeError included; only this path looks at each id
        bad = next(i for i, data in enumerate(ids) if not data or b"\t" in data or b"\n" in data
                   or data.decode("utf-8", "replace").encode("utf-8") != data)
        what = f"song {_brief(ids[bad])} of user" if bad else "user id"
        raise ValueError(f"{what} {_brief(user)} cannot be written: ids are non-empty UTF-8 text without tab or LF") from None


def write_corpus(
    out_dir: str | Path,
    corpus: Corpus,
    *,
    seed: int,
    target_unique: int,
    string_length: int,
) -> Path:
    """Persist a synthetic corpus: profiles TSV plus a JSON manifest.

    The first pair's base is stored once, under the id "base". The
    manifest lists each multiset's size and each pair's target Dice
    i / (n - 1) (0.0 for one pair) and exact Dice, computed here. A corpus
    `load_corpus` could not read back is a ValueError before anything is
    written: no pairs, another base, an empty multiset, a pair_id repeated
    or equal to "base". An id `write_profiles` refuses is a ValueError
    too, raised once the directory is made but before any file is written.
    """
    if not corpus:
        raise ValueError("a corpus needs at least one pair")
    base = corpus[0][1]
    profiles: dict[str, Multiset] = {BASE_ID: base}
    entries = []
    steps = len(corpus) - 1
    for i, (pair_id, a, b) in enumerate(corpus):
        if a != base:
            raise ValueError(f"corpus pair {i} does not compare against the base of pair 0")
        if pair_id in profiles:
            raise ValueError(f"corpus pair {i} reuses the id {_brief(pair_id)}")
        if not (a.cardinality() and b.cardinality()):
            raise ValueError(f"corpus pair {i} holds an empty multiset")
        profiles[pair_id] = b
        entries.append({"pair_id": pair_id, "a": BASE_ID, "b": pair_id,
                        "target_dice": i / steps if steps else 0.0, "exact_dice": dice(a, b)})
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    write_profiles(out_path / PROFILES_NAME, profiles)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "kind": "synthetic",
        "seed": seed,
        "pair_count": len(corpus),
        "target_unique": target_unique,
        "string_length": string_length,
        "profiles_file": PROFILES_NAME,
        "base_id": BASE_ID,
        "multisets": {
            user: {"distinct": profile.distinct_count(), "cardinality": profile.cardinality()}
            for user, profile in profiles.items()
        },
        "pairs": entries,
    }
    manifest_path = out_path / MANIFEST_NAME
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest_path


def load_corpus(manifest_path: str | Path) -> Corpus:
    """Load a corpus manifest back into (pair_id, a, b) triples.

    A malformed manifest, an empty pair list, a repeated pair_id or a
    profile unlike its own ``multisets`` record is a ValueError.
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path, encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except RecursionError:  # the parser recurses once per nested array or object
            raise ValueError(f"corpus manifest {manifest_path} nests too deeply to parse") from None
    if _field(manifest, "schema", str, "corpus manifest") != MANIFEST_SCHEMA:
        raise ValueError(f"unsupported corpus manifest schema: {_brief(manifest['schema'])}")
    profiles_file = _field(manifest, "profiles_file", str, "corpus manifest")
    entries = _field(manifest, "pairs", list, "corpus manifest")
    if not entries:
        raise ValueError(f"corpus manifest {manifest_path} lists no pairs")
    records = _field(manifest, "multisets", dict, "corpus manifest") if "multisets" in manifest else {}
    profiles = read_profiles(manifest_path.parent / profiles_file)
    for user, record in records.items():
        where = f"manifest multisets entry {_brief(user)}"
        profile = profiles.get(user)
        if profile is None:
            raise ValueError(f"{where} names no profile in {_brief(profiles_file)}")
        for name, held in (("distinct", profile.distinct_count()), ("cardinality", profile.cardinality())):
            recorded = _field(record, name, int, where)
            if recorded != held:
                raise ValueError(f"{where} records {name} {_brief(recorded)}, but the profile holds {held}")
    pairs, seen = [], set()
    for number, entry in enumerate(entries):
        pair_id, a, b = (_field(entry, name, str, f"manifest pair {number}") for name in ("pair_id", "a", "b"))
        if pair_id in seen:
            raise ValueError(f"manifest pair {number} repeats pair_id {_brief(pair_id)}")
        seen.add(pair_id)
        try:
            pairs.append((pair_id, profiles[a], profiles[b]))
        except KeyError as missing:
            raise ValueError(f"manifest pair {number} references unknown profile {_brief(missing.args[0])}") from None
    return pairs


_BRIEF = reprlib.Repr()  # quotes any JSON value in at most 100 characters, so an error about it stays one short line
_BRIEF.maxlevel, _BRIEF.maxdict, _BRIEF.maxlist, _BRIEF.maxstring, _BRIEF.maxlong, _BRIEF.maxother = 1, 2, 3, 20, 20, 20
_brief = _BRIEF.repr


def _field(record: object, name: str, kind: type, where: str):
    """record[name] if record is a JSON object holding exactly a `kind` there (no bool for int), else a ValueError."""
    value = record.get(name) if isinstance(record, dict) else None
    if type(value) is not kind:
        raise ValueError(f"{where} needs a {kind.__name__} field {name!r}, got {_brief(value)}")
    return value
