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

`evrecon reconstruct` streams a file's bins through `forward_sequence`:
each window is voxelized once the previous window's bins are used up, and
each frame is written as it comes. Holding every bin and frame instead, a
thin 64x64 network (1 channel) over 20k events/s in 10 ms x 5-bin windows
peaked under tracemalloc at 9.4 MB for 0.25 s of events and at 34.1 MB for
1 s; streamed, at 1.6 MB and 2.1 MB, the difference being the longer
parse. Both are measured after a warm-up run of the short file, which pays
the one-time allocations of a first run in a process.
"""

import tracemalloc

import numpy as np
import pytest

from evrecon import autodiff as ad
from evrecon.cli import main
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


@pytest.mark.slow
def test_reconstruct_peak_does_not_grow_with_the_file(tmp_path):
    h, w, rate = 64, 64, 20_000
    Network(NetworkSpec(height=h, width=w, n_channels=1), seed=0).save(tmp_path / "net.spkt")

    def reconstruct_peak(seconds, run):
        n = int(rate * seconds)
        rng = np.random.default_rng(0)
        t = np.sort(rng.random(n)) * seconds
        path = tmp_path / f"events_{seconds}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {h} {w}\n")
            fh.writelines(map("{} {} {} {}\n".format, t.tolist(), rng.integers(0, w, n).tolist(),
                              rng.integers(0, h, n).tolist(), rng.integers(0, 2, n).tolist()))
        out = tmp_path / f"out_{run}"
        tracemalloc.start()
        try:
            assert main(["reconstruct", "--checkpoint", str(tmp_path / "net.spkt"),
                         "--events", str(path), "--out", str(out),
                         "--window-ms", "10", "--bins", "5"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(list(out.glob("recon_*.pgm"))) == round(seconds * 100) * 5
        return peak

    reconstruct_peak(0.25, "warm-up")  # pays the one-time allocations of a first run
    peaks = [reconstruct_peak(0.25, "short"), reconstruct_peak(1.0, "long")]
    # holding every bin and frame added about 0.33 MB a window: 25 MB here
    assert peaks[1] - peaks[0] < 2e6, [f"{p / 1e6:.2f} MB" for p in peaks]
