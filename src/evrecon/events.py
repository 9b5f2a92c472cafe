"""Event stream parsing, windowing, and continuous voxel-grid encoding.

Event files are UTF-8 text with one "t x y p" record per line: a decimal
timestamp in seconds, then the pixel column x, the pixel row y and the
polarity as int64 decimal integers, separated by whitespace. '#' starts a
comment, and blank lines are skipped. An optional leading "# H W" header
declares the sensor size (each side 1 to 65535), and every event must
then lie on it. Polarity is stored on disk as {0, 1}; 0 maps to -1
internally. Training and inference cut a stream by time with one rule:
window k of d seconds holds the events with (k - 1) * d < t <= k * d, edges
computed as k * d, and a cut's first window is closed on its left too.
"""

import gc
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, OrderingError, ParseError

MAX_SENSOR_SIDE = 65535  # the largest side a 16-bit pixel address names
MAX_SCENE_STEPS = 100_000  # the most windows of a cut and frames of a scene (~6 us a step to draw)


class Event(NamedTuple):
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


# the columns of one record
_RECORD = np.dtype([("t", np.float64), ("x", np.int64), ("y", np.int64), ("p", np.int64)])


def parse_event_stream(text):
    """Parse the "t x y p" lines of a string or UTF-8 bytes into events; p
    on disk is {0, 1}.

    Raises ParseError naming the 1-based line of the first bad record (a
    byte that is not UTF-8, a wrong field count, a bad number, a polarity
    not in {0, 1, -1}, a non-finite timestamp, or a pixel outside the
    sensor a "# H W" header declares), and OrderingError, a ParseError, on
    a decreasing timestamp.
    """
    return _parse(_lines(text))[0]


def load_events(path):
    """Read an event file; returns (events, sensor size or None).

    A rejected file raises ParseError naming the file and the line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _parse(_lines(raw))
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _lines(text):
    """The lines of a string or of UTF-8 bytes."""
    return (_decode(text) if isinstance(text, bytes) else text).splitlines()


def _decode(raw):
    """`raw` as UTF-8 text."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the bad byte, counting line breaks as str.splitlines does
        line = len((raw[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                         line=line) from None


def _sensor_size(lines):
    """(H, W) from a leading "# H W" header line, or None."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            h, w = map(int, line[1:].split() if line.startswith("#") else ())
        except ValueError:
            return None
        _check_sensor(h, w, ParseError, line=lineno)
        return h, w
    return None


def _check_sensor(h, w, error, **where):
    """Raise `error` unless each side of an h x w sensor is 1 to MAX_SENSOR_SIDE."""
    if h < 1 or w < 1:
        raise error(f"sensor size must be positive, got {h} x {w}", **where)
    if max(h, w) > MAX_SENSOR_SIDE:
        raise error(f"sensor side must be at most {MAX_SENSOR_SIDE}, got {h} x {w}", **where)


def _parse(lines):
    """(events, sensor size or None) of the lines of an event file.

    One bulk pass: numpy reads every record in one call, skipping comments
    and blank lines itself, and the columns are checked. Only a rejected
    file has its lines numbered, to name the earliest bad one.
    """
    sensor = _sensor_size(lines)
    try:
        records = _records(lines)
    except ValueError:
        records = None
    if records is None or _first_rejection(records, sensor) is not None:
        _reject(lines, records, sensor)
    t, x, y, p = (records[name] for name in _RECORD.names)
    return events_from_columns(t, x, y, np.where(p == 1, 1, -1)), sensor


def events_from_columns(t, x, y, p):
    """The `Event` list of equal-length t, x, y and p (+/-1) arrays, with
    Python numbers in every field."""
    columns = t.tolist(), x.tolist(), y.tolist(), p.tolist()
    # Events hold only numbers and form no reference cycles, so a garbage
    # collection while they are built scans every one of them and frees
    # nothing; for a million events that was three quarters of the build time.
    collecting = gc.isenabled()
    gc.disable()
    try:
        # tuple.__new__ builds each Event in C, skipping NamedTuple's
        # Python-level __new__
        return list(map(tuple.__new__, repeat(Event), zip(*columns)))
    finally:
        if collecting:
            gc.enable()


def _first_rejection(records, sensor):
    """(index, error type, message) of the first record a column check
    rejects, or None."""
    t, x, y, p = (records[name] for name in _RECORD.names)
    checks = [  # (rejected records, error type, message); on one record the first wins
        (~np.isin(p, (0, 1, -1)), ParseError, "polarity must be 0/1 (or -1), got {p}"),
        (~np.isfinite(t), ParseError, "timestamp {t} is not finite"),
        (np.r_[False, t[1:] < t[:-1]], OrderingError, "timestamp {t} decreases below {t_prev}"),
    ]
    if sensor is not None:
        h, w = sensor
        checks.append(((x < 0) | (x >= w) | (y < 0) | (y >= h), ParseError,
                       f"event at (x, y) = ({{x}}, {{y}}) lies outside the {h}x{w} "
                       "sensor of the header"))
    rejected = [(int(mask.argmax()), k) for k, (mask, _, _) in enumerate(checks) if mask.any()]
    if not rejected:
        return None
    i, k = min(rejected)
    _, error, message = checks[k]
    return i, error, message.format(t=t[i], t_prev=t[i - 1], x=x[i], y=y[i], p=p[i])


def _reject(lines, records, sensor):
    """Raise ParseError for the earliest bad line of a rejected file, given
    its records, or None if some line is not a record."""
    # every line without its comment and surrounding whitespace
    text = list(map(str.strip, map(itemgetter(0), map(str.partition, lines, repeat("#")))))
    lineno = np.flatnonzero(np.fromiter(map(bool, text), bool, len(text))) + 1
    content = list(filter(None, text))
    bad = len(content)
    if records is None:
        bad = _first_unreadable(content)
        records = _records(content[:bad])
    rejection = _first_rejection(records, sensor)
    if rejection is not None:
        i, error, message = rejection
        raise error(message, line=int(lineno[i]))
    fields = len(content[bad].split())
    raise ParseError(f"expected 4 fields 't x y p', got {fields}" if fields != 4 else
                     f"bad field value in {content[bad]!r}: t must be a decimal "
                     "number and x, y, p int64 integers", line=int(lineno[bad]))


def _records(lines):
    """The t, x, y, p columns of the records among `lines`, skipping '#'
    comments and blank lines; ValueError if any other line is not a record."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy warns when no line is a record
        return np.loadtxt(lines, dtype=_RECORD, comments="#", ndmin=1)


def _first_unreadable(lines):
    """Index of the first line that `_records` rejects, given that it
    rejects `lines`. Each line is read on its own, so bisection finds it."""
    lo, hi = 0, len(lines)  # lines[:lo] are records, lines[lo:hi] are not all records
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _records(lines[lo:mid])
        except ValueError:
            hi = mid
        else:
            lo = mid
    return lo


def save_events(path, events, sensor_h, sensor_w):
    """Write events in the on-disk format (p as {0, 1}, t in its shortest
    form that reads back bitwise) under a "# sensor_h sensor_w" size header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {sensor_h} {sensor_w}\n")
        for ev in events:
            fh.write(f"{ev.t} {ev.x} {ev.y} {1 if ev.p > 0 else 0}\n")


def split_windows(events, sensor_h, sensor_w, duration=None, count=None):
    """Split a sorted stream into contiguous windows, slices of `events`.

    Exactly one of `duration` (seconds) or `count` (events) must be given.
    A cut by duration runs from the window holding the first event, on its
    closed left edge or inside, to the one holding the last, and makes at
    most MAX_SCENE_STEPS windows. A window of `count` events (the last may
    hold fewer) spans its first to its last. Sensor sides: 1 to MAX_SENSOR_SIDE.
    """
    _check_sensor(sensor_h, sensor_w, ConfigError)
    if (duration is None) == (count is None):
        raise ConfigError("give exactly one of duration= or count=")
    if duration is not None and not 0.0 < duration < float("inf"):
        raise ConfigError(f"window duration must be positive and finite, got {duration}")
    if count is not None and count < 1:
        raise ConfigError(f"window count must be >= 1, got {count}")
    if not events:
        return []
    if count is not None:
        chunks = (events[start:start + count] for start in range(0, len(events), count))
        return [EventWindow(c, c[0].t, c[-1].t, sensor_h, sensor_w) for c in chunks]
    t_first, t_last = events[0].t, events[-1].t
    k = _window_of(t_first, duration)
    first = k + (k * duration == t_first)  # t_first on edge k * d opens window k + 1
    last = max(first, _window_of(t_last, duration))
    if not last - first < MAX_SCENE_STEPS:  # also an infinite t / duration
        raise ConfigError(f"window duration {duration} s cuts the stream's span, {t_first} "
                          f"to {t_last} s, into more than {MAX_SCENE_STEPS} windows")
    return _duration_windows(events, duration, int(first), int(last), sensor_h, sensor_w)


def _window_of(t, d):
    """The k, a float, with (k - 1) * d < t <= k * d for the edges k * d."""
    k = -(-t // d)  # ceil, inf if too large; the quotient may round across an edge
    return k + (k * d < t) - ((k - 1) * d >= t)


def _duration_windows(events, d, first, last, sensor_h, sensor_w):
    """Windows `first` to `last` of a sorted stream, by the module's rule."""
    edges = [k * d for k in range(first - 1, last + 1)]
    ends = [bisect_left(events, edges[0], key=itemgetter(0))]
    ends += [bisect_right(events, edge, key=itemgetter(0)) for edge in edges[1:]]
    return [EventWindow(events[a:b], t0, t1, sensor_h, sensor_w)
            for a, b, t0, t1 in zip(ends, ends[1:], edges, edges[1:])]


def encode_voxel_grid(window, n_bins):
    """Continuous voxel grid: each event deposits its polarity with a
    triangular kernel onto the two bins around its normalized timestamp
    t* = (B-1) (t - t0) / (t1 - t0). One bincount deposits all the left
    shares, then all the right ones, each in event order.
    """
    if n_bins < 1:
        raise ConfigError(f"bin count must be >= 1, got {n_bins}")
    h, w = window.sensor_h, window.sensor_w
    if n_bins * h * w * 8 > np.iinfo(np.intp).max:  # float64 bytes numpy cannot address
        raise ConfigError(f"bin count {n_bins} is too large for a {h}x{w} grid")
    n = len(window.events)
    t, x, y, p = np.fromiter(chain.from_iterable(window.events), np.float64,
                             4 * n).reshape(n, 4).T
    x, y = x.astype(np.intp), y.astype(np.intp)
    outside = (x < 0) | (x >= w) | (y < 0) | (y >= h)
    if outside.any():
        i = int(outside.argmax())
        ev = window.events[i]
        raise ParseError(f"event {i} at (x, y) = ({ev.x}, {ev.y}) lies outside "
                         f"the {h}x{w} sensor")

    span = window.t1 - window.t0
    t_star = (n_bins - 1) * (t - window.t0) / span if span > 0 and n_bins > 1 else np.zeros(n)
    lo = np.floor(t_star)
    frac = t_star - lo
    lo = np.clip(lo, -2, n_bins).astype(np.intp)  # castable; shares outside [0, B) drop below
    bins = np.concatenate([lo, lo + 1])
    weights = np.concatenate([p * (1.0 - frac), p * frac])
    ok = (bins >= 0) & (bins < n_bins)
    cells = bins[ok] * (h * w) + np.tile(y * w + x, 2)[ok]
    grid = np.bincount(cells, weights[ok], minlength=n_bins * h * w)
    # numpy counts an empty deposit in int64, whatever the weights
    return VoxelGrid(grid.astype(np.float64, copy=False).reshape(n_bins, h, w),
                     window.t0, window.t1)


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
    return [plane.copy() for plane in grid.data]
