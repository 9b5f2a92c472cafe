"""Event stream parsing, windowing, and continuous voxel-grid encoding.

Event files are plain text, one "t x y p" record per line ('#' starts a
comment; an optional leading "# H W" header declares the sensor size).
Polarity is stored on disk as {0, 1}; 0 maps to -1 internally.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, OrderingError, ParseError


@dataclass(frozen=True)
class Event:
    """One brightness-change record: timestamp (s), pixel, polarity (+/-1)."""

    t: float
    x: int
    y: int
    p: int


@dataclass
class EventWindow:
    """A contiguous time slice [t0, t1] of a stream, with sensor geometry."""

    events: list
    t0: float
    t1: float
    sensor_h: int
    sensor_w: int


@dataclass
class VoxelGrid:
    """Temporally binned event tensor of shape (B, H, W)."""

    data: np.ndarray
    t0: float = 0.0
    t1: float = 0.0

    @property
    def bins(self):
        return self.data.shape[0]


def parse_event_stream(stream):
    """Parse lines of "t x y p" into events; p on disk is {0, 1}.

    `stream` may be a string, bytes, or an iterable of lines. Raises
    ParseError with the offending line number on malformed input and
    OrderingError on decreasing timestamps.
    """
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8")
    if isinstance(stream, str):
        stream = stream.splitlines()
    events = []
    last_t = None
    for lineno, line in enumerate(stream, start=1):
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields 't x y p', got {len(fields)}", line=lineno)
        try:
            t = float(fields[0])
            x = int(fields[1])
            y = int(fields[2])
            p_raw = int(fields[3])
        except ValueError as exc:
            raise ParseError(f"bad field value: {exc}", line=lineno) from None
        if p_raw not in (0, 1, -1):
            raise ParseError(f"polarity must be 0/1 (or -1), got {p_raw}", line=lineno)
        if last_t is not None and t < last_t:
            raise OrderingError(f"timestamp {t} decreases below {last_t}", line=lineno)
        last_t = t
        events.append(Event(t=t, x=x, y=y, p=1 if p_raw == 1 else -1))
    return events


def read_sensor_size(stream):
    """Return (H, W) from a leading "# H W" header line, or None."""
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8")
    if isinstance(stream, str):
        stream = stream.splitlines()
    for line in stream:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        line = line.strip()
        if not line:
            continue
        if not line.startswith("#"):
            return None
        fields = line[1:].split()
        if len(fields) == 2:
            try:
                return int(fields[0]), int(fields[1])
            except ValueError:
                return None
        return None
    return None


def load_events(path):
    """Read an event file; returns (events, sensor size or None)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_event_stream(text), read_sensor_size(text)


def save_events(path, events, sensor_h=None, sensor_w=None):
    """Write events in the on-disk format (p as {0, 1})."""
    with open(path, "w", encoding="utf-8") as fh:
        if sensor_h is not None and sensor_w is not None:
            fh.write(f"# {sensor_h} {sensor_w}\n")
        for ev in events:
            fh.write(f"{ev.t:.9f} {ev.x} {ev.y} {1 if ev.p > 0 else 0}\n")


def split_windows(events, sensor_h, sensor_w, duration=None, count=None):
    """Split a sorted stream into contiguous windows.

    Exactly one of `duration` (fixed time span, seconds) or `count` (fixed
    number of events) must be given. The last window may be short.
    """
    if (duration is None) == (count is None):
        raise ConfigError("give exactly one of duration= or count=")
    if not events:
        return []
    windows = []
    if duration is not None:
        if duration <= 0:
            raise ConfigError(f"window duration must be > 0, got {duration}")
        t_begin = events[0].t
        t_end = events[-1].t
        # the final window is closed on the right, so a span that divides
        # evenly does not spawn an extra window for the boundary event
        n_windows = max(1, int(np.ceil((t_end - t_begin) / duration)))
        idx = 0
        for i in range(n_windows):
            w0 = t_begin + i * duration
            w1 = w0 + duration
            chunk = []
            # final window is closed on the right so the last event is kept
            while idx < len(events) and (events[idx].t < w1 or i == n_windows - 1):
                chunk.append(events[idx])
                idx += 1
            if i == n_windows - 1:
                w1 = max(w1, t_end)
            windows.append(EventWindow(chunk, w0, w1, sensor_h, sensor_w))
    else:
        if count < 1:
            raise ConfigError(f"window count must be >= 1, got {count}")
        for start in range(0, len(events), count):
            chunk = events[start:start + count]
            windows.append(EventWindow(chunk, chunk[0].t, chunk[-1].t,
                                       sensor_h, sensor_w))
    return windows


def encode_voxel_grid(window, n_bins):
    """Continuous voxel grid: each event deposits its polarity with a
    triangular kernel onto the two bins around its normalized timestamp
    t* = (B-1) (t - t0) / (t1 - t0).
    """
    if n_bins < 1:
        raise ConfigError(f"bin count must be >= 1, got {n_bins}")
    h, w = window.sensor_h, window.sensor_w
    grid = np.zeros((n_bins, h, w))
    if not window.events:
        return VoxelGrid(grid, window.t0, window.t1)

    t = np.array([ev.t for ev in window.events])
    x = np.array([ev.x for ev in window.events], dtype=np.intp)
    y = np.array([ev.y for ev in window.events], dtype=np.intp)
    p = np.array([ev.p for ev in window.events], dtype=np.float64)
    outside = (x < 0) | (x >= w) | (y < 0) | (y >= h)
    if outside.any():
        i = int(outside.argmax())
        raise ParseError(f"event {i} at (x, y) = ({x[i]}, {y[i]}) lies outside "
                         f"the {h}x{w} sensor")

    span = window.t1 - window.t0
    if span > 0 and n_bins > 1:
        t_star = (n_bins - 1) * (t - window.t0) / span
    else:
        t_star = np.zeros_like(t)

    flat = grid.ravel()
    lo = np.floor(t_star).astype(np.intp)
    frac = t_star - lo
    plane = h * w
    pix = y * w + x
    left_ok = (lo >= 0) & (lo <= n_bins - 1)
    np.add.at(flat, lo[left_ok] * plane + pix[left_ok], p[left_ok] * (1.0 - frac[left_ok]))
    hi = lo + 1
    right_ok = (hi >= 0) & (hi <= n_bins - 1)
    np.add.at(flat, hi[right_ok] * plane + pix[right_ok], p[right_ok] * frac[right_ok])
    return VoxelGrid(grid, window.t0, window.t1)


def normalize_nonzero(grid):
    """Standardize nonzero entries to mean 0 / std 1; zeros stay zero.

    Degenerate case (std 0, e.g. a single nonzero entry) zeroes those
    entries rather than dividing by zero.
    """
    data = grid.data.copy()
    mask = data != 0
    if mask.any():
        vals = data[mask]
        std = vals.std()
        if std > 0:
            data[mask] = (vals - vals.mean()) / std
        else:
            data[mask] = 0.0
    return VoxelGrid(data, grid.t0, grid.t1)


def slice_temporal_bins(grid):
    """Ordered list of the B single-channel H x W planes."""
    return [grid.data[i].copy() for i in range(grid.bins)]
