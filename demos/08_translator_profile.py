"""Elliptic regularization: the rotationally symmetric translator.

The weighted-minimal surface over a circle of radius 1 is a cigar closing
on the axis at height ~ R0^2 / (2 eps); its downward translates slice the
plane z = 0 in circles tracking the curve-shortening law sqrt(1 - 2t), with
error vanishing as eps -> 0.
"""

import numpy as np

from fbmcf.regularize import (i_epsilon, slab_mass, solve_translator_profile,
                              translate_slices)

t_grid = np.linspace(0.0, 0.4, 9)
print(f"{'eps':>6} {'z_max':>8} {'resid':>10} {'I_eps':>9} {'sup slice err':>14}")
for eps in (0.2, 0.1, 0.05):
    p = solve_translator_profile(eps, 1.0)
    err = np.abs(translate_slices(p, np.linspace(0, 0.4, 81))
                 - np.sqrt(1 - 2 * np.linspace(0, 0.4, 81))).max()
    print(f"{eps:6.2f} {p.z_max:8.3f} {p.soliton_residual():10.2e} "
          f"{i_epsilon(p):9.5f} {err:14.5f}")
print(f"\n(2 pi R0 = {2 * np.pi:.5f} bounds every I_eps from above)")

p = solve_translator_profile(0.05, 1.0)
print(f"\nslice radii at eps = 0.05 vs the circle law:")
for t, r in zip(t_grid, translate_slices(p, t_grid)):
    print(f"  t={t:4.2f}: r_eps = {r:.5f}, exact = {np.sqrt(1 - 2 * t):.5f}")

m = slab_mass(p, (0.0, 1.0))
print(f"\nslab z in [0,1]: area {m:.4f} <= (1 + eps) * 2 pi R0 = "
      f"{1.05 * 2 * np.pi:.4f}")
