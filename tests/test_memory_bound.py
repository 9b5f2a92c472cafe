"""Each conv holds one column tile at sensor resolution.

`autodiff._conv` gathers its column blocks in tiles of whole output rows
of at most `_TILE` elements, each a fresh array. Whole blocks reached
97 MiB at 180×240 (`up3`'s 1152 × 11040 block). One bin through each
full-scale network shows the bound: every conv's traced forward peak
above its padded input and output is at most one tile. The traced peak
of a PA-EVSNN+AMP bin shows what the tiles save (266 MB with whole
blocks, 149 MB with 16 MiB tiles). Building the two networks and running
their bins takes a few seconds, so it is marked slow.
"""

import tracemalloc

import numpy as np
import pytest

from evrecon import autodiff as ad
from evrecon.model import Network, NetworkSpec
from test_autodiff import TRACE_SLACK, tracing_conv


@pytest.mark.slow
def test_sensor_bins_keep_each_conv_to_one_tile(monkeypatch):
    rng = np.random.default_rng(0)
    plane = rng.standard_normal((180, 240)) * (rng.random((180, 240)) < 0.1)
    evsnn, paevsnn = (Network(NetworkSpec(height=180, width=240, **extra), seed=0)
                      for extra in ({}, dict(potential_assisted=True, amp_enabled=True)))
    tracemalloc.start()
    try:
        with ad.no_grad():
            frame = paevsnn.forward_step(plane).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.shape == (1, 1, 180, 240) and np.isfinite(frame).all()
    assert peak < 175e6, f"{peak / 1e6:.1f} MB"

    excess = []
    monkeypatch.setattr(ad, "_conv", tracing_conv(excess))
    tracemalloc.start()
    try:
        with ad.no_grad():
            evsnn.forward_step(plane)
            paevsnn.forward_step(plane)
    finally:
        tracemalloc.stop()
    assert 0 < max(excess) <= 8 * ad._TILE + TRACE_SLACK, f"{max(excess) / 2**20:.1f} MiB"
