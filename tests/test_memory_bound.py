"""Bounded memory at sensor resolution: each conv holds one column tile,
and a loaded event stream holds its columns and no `Event` objects.

`autodiff._conv` gathers its column blocks in tiles of whole output rows
of at most `_TILE` elements, each a fresh array. Whole blocks reached
97 MiB at 180×240 (`up3`'s 1152 × 11040 block). One bin through each
full-scale network shows the bound: every conv's traced forward peak
above its padded input and output is at most one tile. The traced peak
of a PA-EVSNN+AMP bin shows what the tiles save (266 MB with whole
blocks, 149 MB with 16 MiB tiles). Building the two networks and running
their bins takes a few seconds, so it is marked slow.

A 1M-event file loaded as `Event` objects peaked at 269.7 MiB under
tracemalloc and held 107.2 MiB (112 bytes an event). As columns it held
30.5 MiB (32 bytes an event: t, x, y and p at 8 bytes), and peaked at
155.7 MiB while numpy read a list of Python lines; read by numpy from the
file's path it peaks at 61.1 MiB (64 bytes an event: the record array and
its contiguous column copies). The test loads 200k events, in the
benchmark's `ingest` format.
"""

import tracemalloc

import numpy as np
import pytest

from evrecon import autodiff as ad
from evrecon.events import load_events
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


@pytest.mark.slow
def test_loaded_events_hold_their_columns_only(tmp_path):
    n = 200_000
    rng = np.random.default_rng(0)
    t = np.sort(rng.random(n))
    x, y, p = rng.integers(0, 240, n), rng.integers(0, 180, n), rng.integers(0, 2, n)
    path = tmp_path / "events.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# 180 240\n")
        fh.writelines(map("{:.9f} {} {} {}\n".format,
                          t.tolist(), x.tolist(), y.tolist(), p.tolist()))
    tracemalloc.start()
    try:
        stream, sensor = load_events(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sensor == (180, 240) and len(stream) == n
    assert held / n <= 40, f"{held / n:.1f} bytes held an event"
    assert peak / n <= 72, f"peak {peak / n:.1f} bytes an event"
