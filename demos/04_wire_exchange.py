"""A device-to-device exchange: one envelope each way, no third party.

Run with: python demos/04_wire_exchange.py
"""

import numpy as np

from sketchsim import (
    CountingBloomFilter,
    Multiset,
    cbf_dice,
    check_witnesses,
    decode,
    decode_header,
    encode,
)

rng = np.random.default_rng(42)

# Both peers agree on the sketch shape and seed beforehand (the header
# carries them, so a mismatch is detected, never silently mis-scored).
LENGTH, HASHES, SEED = 128, 1, 2024

shared = {f"song-{i:03d}": int(rng.integers(1, 8)) for i in range(40)}
phone_a = Multiset({**shared, **{f"only-a-{i}": 1 for i in range(25)}})
phone_b = Multiset({**shared, **{f"only-b-{i}": 1 for i in range(25)}})

# Each phone sketches its own profile and sends one message.
message_a = encode(CountingBloomFilter.from_multiset(phone_a, LENGTH, HASHES, SEED))
message_b = encode(CountingBloomFilter.from_multiset(phone_b, LENGTH, HASHES, SEED))
print(f"message size: {len(message_a)} bytes (27-byte header + {LENGTH}*4 payload)")

print("\nfirst 32 bytes of the envelope:")
print(" ".join(f"{b:02x}" for b in message_a[:32]))

# The receiving side checks compatibility from the headers alone, then
# scores the similarity from the two counter vectors.
witness = check_witnesses(decode_header(message_a), decode_header(message_b))
print("\ncompatible:", witness)

score = cbf_dice(decode(message_a), decode(message_b))
print(f"estimated Dice similarity: {score:.3f}")

from sketchsim import dice  # exact value, for the demo only

print(f"exact Dice (neither phone could know this): {dice(phone_a, phone_b):.3f}")
