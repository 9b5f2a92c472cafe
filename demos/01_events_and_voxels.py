#!/usr/bin/env python3
"""Demo 1: from a moving scene to an event stream to voxel grids.

A synthetic texture slides under a simulated event camera; each pixel
emits an event whenever its log intensity moves by one contrast
threshold. The resulting stream is split into time windows and encoded
as voxel grids with triangular temporal interpolation.
"""

import numpy as np

from evrecon.events import encode_voxel_grid, normalize_nonzero, split_windows
from evrecon.synthetic import generate_events, random_scene

rng = np.random.default_rng(0)
scene = random_scene(24, 24, steps=11, rng=rng, contrast=0.1)
events, frames, flows = generate_events(scene)

print(f"scene: {scene.texture.shape[0]}x{scene.texture.shape[1]}, "
      f"{scene.steps} frames, contrast threshold {scene.contrast}")
print(f"simulated {len(events)} events over {scene.dt * (scene.steps - 1) * 1e3:.0f} ms")

on = int((events.p > 0).sum())  # the stream is held as t, x, y, p columns
print(f"polarity split: {on} ON / {len(events) - on} OFF")

# Window the stream: window k holds frame interval k's events,
# (k - 1)·dt < t <= k·dt, the windows the network is trained on.
windows = split_windows(events, 24, 24, duration=scene.dt)
print(f"\nsplit into {len(windows)} windows of {scene.dt * 1e3:.0f} ms:")
for w in windows[:3]:
    print(f"  [{w.t0 * 1e3:6.1f}, {w.t1 * 1e3:6.1f}] ms  {len(w.events):4d} events")
print("  ...")

# Encode the first window with 5 temporal bins. Each event deposits its
# polarity across the two nearest bins with linear weights, so the total
# signed mass of the grid equals the signed event count.
grid = encode_voxel_grid(windows[0], n_bins=5)
signed = int(windows[0].columns[3].sum())
print(f"\nvoxel grid: shape {grid.data.shape}")
print(f"mass conservation: grid sum {grid.data.sum():+.6f} "
      f"vs signed event count {signed:+d}")
print("per-bin absolute mass:", np.round(np.abs(grid.data).sum(axis=(1, 2)), 2))

# Networks consume the nonzero-normalized version: active voxels are
# standardized, silent ones stay exactly zero.
norm = normalize_nonzero(grid)
nz = norm.data[norm.data != 0]
print(f"\nafter nonzero normalization: active-voxel mean {nz.mean():+.2e}, "
      f"std {nz.std():.3f}, zeros untouched "
      f"({np.sum(norm.data == 0)} of {norm.data.size})")
