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
parse.

Each peak is taken in a fresh interpreter, after a warm-up run of the
short file that pays the one-time allocations of a first run. A traced
peak also counts the tables the interpreter rebuilds for itself. Every
`sliding_window_view` call (the conv gather) reads its input's
`__array_interface__`, which interns a string that dies at once, and
after some tens of thousands of those CPython rebuilds its table of
interned strings: a 1.9 MB block under pytest, where that table holds
2^17 slots. Measured inside the test process, whether a rebuild fell
within the long run depended on which tests ran before it, and when it
did the long run read 4.01 MB against the short run's 1.56 MB.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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


# argv: checkpoint, warm-up events, events, out; prints the run's traced peak
_RECONSTRUCT_PEAK = """
import sys, tracemalloc
from evrecon.cli import main

def run(events, out):
    return main(["reconstruct", "--checkpoint", sys.argv[1], "--events", events,
                 "--out", out, "--window-ms", "10", "--bins", "5"])

assert run(sys.argv[2], sys.argv[4] + "_warm-up") == 0
tracemalloc.start()
assert run(sys.argv[3], sys.argv[4]) == 0
print(tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.slow
def test_reconstruct_peak_does_not_grow_with_the_file(tmp_path):
    h, w, rate = 64, 64, 20_000
    Network(NetworkSpec(height=h, width=w, n_channels=1), seed=0).save(tmp_path / "net.spkt")

    def write_events(seconds):
        n = int(rate * seconds)
        rng = np.random.default_rng(0)
        t = np.sort(rng.random(n)) * seconds
        path = tmp_path / f"events_{seconds}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {h} {w}\n")
            fh.writelines(map("{} {} {} {}\n".format, t.tolist(), rng.integers(0, w, n).tolist(),
                              rng.integers(0, h, n).tolist(), rng.integers(0, 2, n).tolist()))
        return path

    short = write_events(0.25)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def reconstruct_peak(seconds, run):
        """The traced peak of `reconstruct` in a fresh interpreter; BLAS stays
        at one thread through the variables tests/conftest.py sets."""
        out = tmp_path / f"out_{run}"
        events = short if seconds == 0.25 else write_events(seconds)
        proc = subprocess.run([sys.executable, "-c", _RECONSTRUCT_PEAK, str(tmp_path / "net.spkt"),
                               str(short), str(events), str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert len(list(out.glob("recon_*.pgm"))) == round(seconds * 100) * 5
        return int(proc.stdout.split()[-1])

    peaks = [reconstruct_peak(0.25, "short"), reconstruct_peak(1.0, "long")]
    # holding every bin and frame added about 0.33 MB a window: 25 MB here
    assert peaks[1] - peaks[0] < 2e6, [f"{p / 1e6:.2f} MB" for p in peaks]
