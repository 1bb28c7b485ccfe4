"""RMSE over sketch dimensions: longer helps, more hash functions hurt.

Sweeps sketch shapes over a synthetic corpus with evenly spaced
similarity targets and prints the estimation error of every cell.

Run with: python demos/03_rmse_sweep.py  (a few seconds)
"""

from sketchsim import GridSpec, generate_synthetic, run_grid

print("generating the 1001-pair synthetic corpus (67 distinct 10-char strings each)")
corpus = generate_synthetic(seed=7)

print("\nCBF grid (rows: hash functions k, columns: length n)")
grid = GridSpec("cbf", dims=[64, 128, 200, 400, 800], depths=[1, 2, 4, 8, 10], seed=0)
cells = run_grid(corpus, grid)
header = "k\\n " + "".join(f"{n:>8}" for n in grid.dims)
print(header)
for k in grid.depths:
    print(f"{k:<4}" + "".join(f"{cells[(n, k)]:8.4f}" for n in grid.dims))

print("\nCMS grid (rows: depth d, columns: width w)")
grid = GridSpec("cms", dims=[64, 128, 200, 400, 800], depths=[1, 2, 4, 8, 10], seed=0)
cells = run_grid(corpus, grid)
print("d\\w " + "".join(f"{w:>8}" for w in grid.dims))
for d in grid.depths:
    print(f"{d:<4}" + "".join(f"{cells[(w, d)]:8.4f}" for w in grid.dims))

print(
    "\nreading the tables: RMSE falls with table size, rises with hash count,"
    "\nand is nearly flat in CMS depth -- a one-hash CBF (= one-row CMS) gives"
    "\nthe best accuracy per byte."
)
