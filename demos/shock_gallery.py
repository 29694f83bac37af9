"""
Shock processes side by side
============================

"""

import numpy as np

from gapdyn import Ar1, TimeGrid, WhiteNoise, realize, standard_normals, write_svg

grid = TimeGrid(dt=0.1, n_steps=201)

# Same seed, same underlying draws: persistence is the only difference.
white = realize(WhiteNoise(sigma=0.3, seed=5), grid)
persistent = realize(Ar1(rho=0.9, sigma=0.3, seed=5), grid)

print(f"white noise   std {np.std(white):.3f}, lag-1 corr "
      f"{np.corrcoef(white[:-1], white[1:])[0, 1]:+.3f}")
print(f"AR(1) rho=0.9 std {np.std(persistent):.3f}, lag-1 corr "
      f"{np.corrcoef(persistent[:-1], persistent[1:])[0, 1]:+.3f}")

# The raw generator is reproducible and prefix-stable: the first draws of a
# longer stream match a shorter one.
assert np.array_equal(standard_normals(5, 10), standard_normals(5, 64)[:10])
print("draw streams are prefix-stable across lengths")

write_svg("shock_gallery.svg", grid.times(),
          [("White noise", white), ("AR(1), rho=0.9", persistent)],
          title="Two forcing processes from one seed", y_label="shock")
print("wrote shock_gallery.svg")
