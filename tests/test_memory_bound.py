"""The conv column workspace stays one tile at sensor resolution.

`autodiff._conv` gathers its column blocks in tiles of whole output rows
of at most `_TILE` elements. Whole blocks grew the workspace to 97 MiB
at 180×240 (`up3`'s 1152 × 11040 block) and held it there. One bin
through each full-scale network shows the bound, and the traced peak of
a PA-EVSNN+AMP bin that starts from an empty workspace shows what it
saves (266 MB with whole blocks, 166 MB with 16 MiB tiles). Building
the two networks and running their bins takes a few seconds, so it is
marked slow.
"""

import tracemalloc

import numpy as np
import pytest

from evrecon import autodiff as ad
from evrecon.model import Network, NetworkSpec


@pytest.mark.slow
def test_sensor_bins_keep_the_workspace_to_one_tile(monkeypatch):
    rng = np.random.default_rng(0)
    plane = rng.standard_normal((180, 240)) * (rng.random((180, 240)) < 0.1)
    evsnn, paevsnn = (Network(NetworkSpec(height=180, width=240, **extra), seed=0)
                      for extra in ({}, dict(potential_assisted=True, amp_enabled=True)))
    monkeypatch.setattr(ad, "_workspace", np.empty(0))
    with ad.no_grad():
        evsnn.forward_step(plane)
    assert 0 < ad._workspace.nbytes <= 8 * ad._TILE

    monkeypatch.setattr(ad, "_workspace", np.empty(0))  # the traced peak counts the workspace
    tracemalloc.start()
    try:
        with ad.no_grad():
            frame = paevsnn.forward_step(plane).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.shape == (1, 1, 180, 240) and np.isfinite(frame).all()
    assert 0 < ad._workspace.nbytes <= 8 * ad._TILE
    assert peak < 175e6, f"{peak / 1e6:.1f} MB"
