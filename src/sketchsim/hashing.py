"""Deterministic seeded hash family shared by every sketch.

Two sketches can only be compared if the same elements land on the same
cells on both sides, so the digest procedure is normative down to the
byte (README "Hash procedure"):

    h1      = mix64( FNV1a64( seed_le8 || 0x01 || element ) )
    h2      = mix64( FNV1a64( seed_le8 || 0x02 || element ) ) with bit 0 forced to 1
    index_i = ((h1 + i * h2) mod 2^64) mod table_size       for i = 0..k-1

and row r of a Count-Min sketch hashes with `derive_row_seed(base, r)`,
row 0 keeping the base seed, so a one-row CMS is the one-hash CBF.

`digest_pair` is the scalar reference digest. The bulk path gives the
same values for many elements under many row seeds: the rows' FNV start
states (`_start_states`), then `_digests`, one `fnv1a64_bulk` pass from
those states and the mix. A sketch shape (`SketchParams._plan`) is the one
place these start states are kept; both the sender's builds and the grid
digest from it. The bulk kernel lays out its lanes, one per (start state,
input), by their count (see `_fnv1a64_block`). `_probe_positions` is the
only implementation of the index formula.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .multiset import as_element

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
SEED_MAX = 2**64 - 1

_DOMAIN_H1 = b"\x01"
_DOMAIN_H2 = b"\x02"
_DOMAIN_ROW = b"\x03"

_PRIME = np.array(FNV_PRIME, dtype=np.uint64)  # 0-d: a numpy scalar operand costs more per ufunc call
_SHIFT, _MIX1, _MIX2 = (np.array(value, dtype=np.uint64) for value in (33, 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53))
_BLOCK_INPUTS = 2**13  # inputs widened to uint64 at once; bounds the kernel's transient memory
_FLAT_LANES = 2**11  # (state, input) lanes of several states that fold as one flat lane, at most


def fnv1a64(data: bytes, state: int = FNV_OFFSET) -> int:
    """64-bit FNV-1a digest of `data`, continuing from `state`."""
    h = state
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _MASK64
    return h


def mix64(value: int) -> int:
    """64-bit avalanche finalizer (murmur-style); bijective on uint64."""
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & _MASK64
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & _MASK64
    value ^= value >> 33
    return value


def _mix64_bulk(values: np.ndarray) -> np.ndarray:
    """mix64 of every entry of a uint64 array, in place; returns the array."""
    shifted = values >> _SHIFT  # the one temporary, refilled for each shift
    values ^= shifted
    values *= _MIX1
    values ^= np.right_shift(values, _SHIFT, out=shifted)
    values *= _MIX2
    values ^= np.right_shift(values, _SHIFT, out=shifted)
    return values


def fnv1a64_bulk(datas: Sequence[bytes], states: Sequence[int] | np.ndarray) -> np.ndarray:
    """A (len(states), len(datas)) uint64 array whose entry [s, i] is fnv1a64(datas[i], states[s]).

    The inputs of each length digest as one byte block, every state at once.
    """
    start = np.asarray(states, dtype=np.uint64)
    joined = np.frombuffer(b"".join(datas), dtype=np.uint8)
    lengths = set(map(len, datas))
    if len(lengths) == 1:
        (length,) = lengths
        return _fnv1a64_block(joined.reshape(len(datas), length), start)
    out = np.empty((len(start), len(datas)), dtype=np.uint64)
    sizes = np.fromiter(map(len, datas), dtype=np.intp, count=len(datas))
    starts = np.cumsum(sizes) - sizes
    for length in lengths:
        members = np.flatnonzero(sizes == length)
        # each member's bytes gathered as one row: one byte per input byte
        out[:, members] = _fnv1a64_block(joined[starts[members, None] + np.arange(length)], start)
    return out


def _fnv1a64_block(block: np.ndarray, start: np.ndarray) -> np.ndarray:
    """FNV-1a of each row of an (inputs, length) uint8 block from each start state, as (states, inputs).

    The lanes, one per (state, input), are laid out by their count. Up to
    `_FLAT_LANES` lanes of several states fold as one flat lane, each byte
    column widened once per state; one state folds into a 1-D lane, and
    more lanes of several states into a (states, inputs) array that
    broadcasts each column, `_BLOCK_INPUTS` inputs at a time.
    """
    out = np.empty((len(start), len(block)), dtype=np.uint64)
    if len(start) > 1 and out.size <= _FLAT_LANES:
        out[...] = start[:, None]
        columns = np.empty((block.shape[1], *out.shape), dtype=np.uint64)
        columns[...] = block.T[:, None]  # a broadcast column costs more per ufunc call than a widened one
        _fnv1a64_fold(out.reshape(-1), columns.reshape(len(columns), out.size))
        return out
    # a (1, n) view costs about twice as much per ufunc call as a 1-D lane
    lanes, start = (out[0], start[0]) if len(start) == 1 else (out, start[:, None])
    for first in range(0, len(block), _BLOCK_INPUTS):
        rows = block[first : first + _BLOCK_INPUTS]
        h = lanes[..., first : first + len(rows)]
        h[...] = start
        _fnv1a64_fold(h, rows.T.astype(np.uint64, order="C"))
    return out


def _fnv1a64_fold(lanes: np.ndarray, columns: np.ndarray) -> None:
    """Fold each uint64 byte column, one entry per lane (or broadcast over the states), into the lanes in place."""
    for column in columns:
        lanes ^= column
        lanes *= _PRIME  # uint64 wraparound, matching the scalar masking


def _check_seed(seed: int) -> int:
    if type(seed) is not int or not 0 <= seed <= SEED_MAX:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return seed


def _prefix_state(seed: int, domain: bytes) -> int:
    return fnv1a64(seed.to_bytes(8, "little") + domain)


def digest_pair(seed: int, element: bytes | str) -> tuple[int, int]:
    """The (h1, h2) digest pair of an element under a seed; h2 is odd."""
    key = as_element(element)
    _check_seed(seed)
    h1 = mix64(fnv1a64(key, _prefix_state(seed, _DOMAIN_H1)))
    h2 = mix64(fnv1a64(key, _prefix_state(seed, _DOMAIN_H2))) | 1
    return h1, h2


def derive_row_seed(base_seed: int, row: int) -> int:
    """Seed of a Count-Min row family; row 0 is the base seed itself."""
    _check_seed(base_seed)
    if type(row) is not int or row < 0:
        raise ValueError(f"row must be a non-negative integer, got {row!r}")
    if not row:
        return base_seed
    return fnv1a64(row.to_bytes(4, "little"), _prefix_state(base_seed, _DOMAIN_ROW))


def _start_states(row_seeds: Sequence[int], hash_count: int) -> np.ndarray:
    """The FNV start state of every digest the rows need, as one uint64 array: each row's h1, then each row's h2."""
    domains = (_DOMAIN_H1,) if hash_count == 1 else (_DOMAIN_H1, _DOMAIN_H2)
    states = [_prefix_state(_check_seed(seed), domain) for domain in domains for seed in row_seeds]
    return np.array(states, dtype=np.uint64)


def _digests(states: np.ndarray, hash_count: int, elements: Sequence[bytes]) -> tuple[np.ndarray, ...]:
    """The digests rows need, from their `_start_states`: one FNV pass, then mix64, then h2 made odd.

    (h1,) for one probe per row, else (h1, h2), each a (rows, len(elements))
    uint64 array whose entry [r, i] is that digest of
    digest_pair(row_seeds[r], elements[i]).
    """
    domains = 1 if hash_count == 1 else 2
    digests = _mix64_bulk(fnv1a64_bulk(elements, states)).reshape(domains, len(states) // domains, len(elements))
    if hash_count > 1:
        digests[1] |= np.uint64(1)  # h2 is odd
    return tuple(digests)


def _probe_positions(digests: Sequence[np.ndarray], hash_count: int, size: int, first: int = 0) -> np.ndarray:
    """The cells of probes first..hash_count-1, shape (hash_count - first, *h1.shape).

    Entry [j, ...] is (h1 + (first + j) * h2) mod size, in uint64 arithmetic that wraps mod 2^64.
    """
    h1 = digests[0]
    if hash_count > 1:
        h1 = h1 + np.multiply.outer(np.arange(first, hash_count, dtype=np.uint64), digests[1])
    # a view reads the uint64 remainders with the bits astype(np.int64) would copy; each is below size
    return (h1 % np.uint64(size)).view(np.int64).reshape(hash_count - first, *digests[0].shape)

