"""Multisets and counting sketches: inserts, point queries, upper bounds.

Run with: python demos/01_sketch_basics.py
"""

import numpy as np

from sketchsim import CountMinSketch, CountingBloomFilter, Multiset

# A listening history is a multiset: the same song can be played many times.
history = Multiset()
for song, plays in [("blue-train", 12), ("giant-steps", 7), ("naima", 3)]:
    history.insert(song, plays)
print("profile:", history)
print("cardinality (total plays):", history.cardinality())
print("distinct songs:", history.distinct_count())

# A Counting Bloom Filter stores the profile in n saturating counters.
cbf = CountingBloomFilter.from_multiset(history, length=32, hash_count=2, seed=1)
print("\nCBF counters:", cbf.counters.tolist())

# Point queries return the minimum counter over the song's positions.
# Collisions can only inflate counters, so the answer is never below the
# true play count.
for song in ["blue-train", "naima", "never-played"]:
    print(f"estimate({song}) = {cbf.estimate_count(song)}")

# The Count-Min Sketch spreads the same idea over several rows, one hash
# function per row.
cms = CountMinSketch.from_multiset(history, width=16, depth=4, seed=1)
print("\nCMS table:")
print(cms.table)
print("estimate(blue-train) =", cms.estimate_count("blue-train"))

# A one-row CMS *is* the one-hash CBF for the same seed, cell for cell.
# Deeper sketches are not CBFs: summing the 4 rows column-wise keeps 4x
# the mass, but no 4-hash CBF places its cells that way, so a CMS is
# only ever compared with a CMS of its own shape.
one_row = CountMinSketch.from_multiset(history, width=32, depth=1, seed=1)
one_hash = CountingBloomFilter.from_multiset(history, length=32, hash_count=1, seed=1)
print("\none-row CMS == one-hash CBF:", np.array_equal(one_row.table[0], one_hash.counters))
print("projection of the 4-row CMS keeps 4x the mass:",
      int(cms.table.sum()), "==", 4 * history.cardinality())
