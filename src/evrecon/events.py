r"""Event stream parsing, windowing, and continuous voxel-grid encoding.

Event files are UTF-8 text with one "t x y p" record per line: a decimal
timestamp in seconds, then the pixel column x, the pixel row y and the
polarity as int64 decimal integers, separated by whitespace. A line ends
at "\n", "\r\n" or "\r", as numpy's text reader ends it; every other
character that `str.splitlines` breaks on ("\x0b", "\x0c", "\x1c" to
"\x1e", "\x85", "\u2028", "\u2029") is whitespace inside a line. '#'
starts a comment, and blank lines are skipped. An optional leading "# H W"
header declares the sensor size (each side 1 to 65535), and every event
must then lie on it. Polarity is stored on disk as {0, 1}; 0 maps to -1
internally.

Text is read by one of two routes, which accept and reject the same
records. `load_events` hands numpy the path of a regular file, and numpy's
C reader parses it in chunks; `parse_event_stream`, and `load_events` for
a FIFO or a compressed-suffix name, split the text into lines first. A
rejected file is split into lines in either case, to name its first bad
line.

Training and inference cut a stream by time with one rule:
window k of d seconds holds the events with (k - 1) * d < t <= k * d, edges
computed as k * d, and a cut's first window is closed on its left too.

A stream is held as numpy columns (`EventStream`); parsing, cutting,
voxelizing and saving read only those. `Event` objects are built, once,
only when a caller indexes or iterates a stream or reads a window's events.
"""

import gc
import os
import stat
import warnings
from dataclasses import dataclass
from itertools import repeat
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


class EventStream:
    """A time-sorted event stream as four equal-length columns: t (float64
    seconds), x and y (int64 pixels) and p (int64, +/-1).

    It reads as a sequence of `Event`s: indexing, iterating or comparing it
    builds the list of its `Event`s from the columns the first time and
    keeps it. The windows cut from a stream hand out slices of that one
    list, so an event is the same object in the stream and in its window.
    """

    def __init__(self, t, x, y, p):
        self._columns = t, x, y, p
        self._view = None    # the Event list, once built
        self._source = None  # (stream, start) when the view is a slice of that stream's

    @classmethod
    def of(cls, events):
        """`events` if it is a stream, else the stream of a list of `Event`s,
        whose view is that list and whose columns are read from it when
        first asked for."""
        if isinstance(events, EventStream):
            return events
        stream = cls.__new__(cls)
        stream._columns, stream._view, stream._source = None, events, None
        return stream

    @property
    def columns(self):
        """(t, x, y, p)."""
        if self._columns is None:
            self._columns = _record_columns(np.array(self._view, dtype=_RECORD))
        return self._columns

    t = property(lambda self: self.columns[0])
    x = property(lambda self: self.columns[1])
    y = property(lambda self: self.columns[2])
    p = property(lambda self: self.columns[3])

    def _slice(self, start, stop):
        """Events start to stop: views of the columns, and a view that is a
        slice of this stream's."""
        part = EventStream(*(c[start:stop] for c in self.columns))
        part._source = self, start
        return part

    def _events(self):
        if self._view is None:
            if self._source is None:
                self._view = events_from_columns(*self.columns)
            else:
                stream, start = self._source
                self._view = stream._events()[start:start + len(self)]
                # From now on hold only this slice: views of the stream's
                # columns would keep all of them alive after the stream.
                self._source = self._columns = None
        return self._view

    def __len__(self):
        return len(self._view) if self._columns is None else len(self._columns[0])

    def __getitem__(self, index):
        return self._events()[index]

    def __iter__(self):
        return iter(self._events())

    def __eq__(self, other):
        if isinstance(other, EventStream):
            other = other._events()
        return self._events() == other


class EventWindow:
    """A contiguous time slice [t0, t1] of a stream, with sensor geometry.

    Its events are given as an `EventStream` (as `split_windows` cuts
    them) or as a list of `Event`s; `events` reads them as a list of
    `Event`s and `columns` as (t, x, y, p).
    """

    def __init__(self, events, t0, t1, sensor_h, sensor_w):
        self.stream = EventStream.of(events)
        self.t0, self.t1 = t0, t1
        self.sensor_h, self.sensor_w = sensor_h, sensor_w

    @property
    def events(self):
        return self.stream._events()

    @property
    def columns(self):
        return self.stream.columns


@dataclass
class VoxelGrid:
    """Temporally binned event tensor of shape (B, H, W)."""

    data: np.ndarray
    t0: float = 0.0
    t1: float = 0.0


# the columns of one record
_RECORD = np.dtype([("t", np.float64), ("x", np.int64), ("y", np.int64), ("p", np.int64)])
_record_columns = itemgetter(*_RECORD.names)  # the (t, x, y, p) views of a record array


def _off_sensor(x, y, h, w):
    """Which events of the x and y columns lie off an h x w sensor."""
    return (x < 0) | (x >= w) | (y < 0) | (y >= h)


def parse_event_stream(text):
    """Parse the "t x y p" lines of a string or UTF-8 bytes into an
    `EventStream`; p on disk is {0, 1}. The text is split into lines by the
    module's line rule, and numpy reads the list.

    Raises ParseError naming the 1-based line of the first bad record (a
    byte that is not UTF-8, a wrong field count, a bad number, a polarity
    not in {0, 1, -1}, a non-finite timestamp, or a pixel outside the
    sensor a "# H W" header declares), and OrderingError, a ParseError, on
    a decreasing timestamp.
    """
    return _parse(_lines(text))[0]


# names numpy's file opener would decompress rather than read as text
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def load_events(path, sensor=None):
    """Read an event file; returns (EventStream, sensor size or None).

    The sensor is the file's "# H W" header, else `sensor`, the (H, W) the
    caller assumes for a file without one; every event must lie on it.

    A regular file is read without splitting it into Python lines: its
    header from its first non-blank line, and its records by numpy's
    chunked C reader, given the file's absolute path. Only a rejected file
    is split, to name its first bad line. A FIFO or other special file,
    and a name that numpy would decompress (.gz, .bz2, .xz, .lzma), is
    read as bytes and parsed as `parse_event_stream` parses them. A
    rejected file raises ParseError naming the file and the line.
    """
    with open(path, "rb") as fh:
        try:
            return _load(fh, sensor)
        except ParseError as exc:
            exc.args = (f"{path}: {exc}",)
            raise


def _load(fh, assumed):
    """(EventStream, sensor size or None) of an event file open in binary."""
    name = fh.name
    if (not isinstance(name, str) or name.endswith(_COMPRESSED)
            or not stat.S_ISREG(os.fstat(fh.fileno()).st_mode)):
        return _parse(_lines(fh.read()), assumed)
    try:
        header = _sensor_size(_file_lines(fh))
        # numpy opens a path itself; an absolute one, of a file that is
        # open and regular, names no URL and no other file
        columns = _records(os.path.abspath(name))
    except ValueError:  # not UTF-8, or some line is not a record
        columns = None
    if columns is None or _first_rejection(columns, header, assumed) is not None:
        fh.seek(0)
        return _parse(_lines(fh.read()), assumed)  # names the first bad line
    return _stream(columns), header or assumed


def _lines(text):
    r"""The lines of a string or of UTF-8 bytes. A line ends at "\n",
    "\r\n" or "\r"; a break that ends the text opens no further line."""
    text = _decode(text) if isinstance(text, bytes) else text
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _file_lines(fh):
    """The lines of a file open in binary, read as they are asked for;
    UnicodeDecodeError on a line that is not UTF-8."""
    for raw in fh:  # each ends at b"\n", so no "\r\n" is cut in two
        yield from _lines(raw.decode("utf-8"))


def _decode(raw):
    """`raw` as UTF-8 text."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_lines(raw[:exc.start].decode("utf-8") + "x"))  # the bad byte's line
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


def _parse(lines, assumed=None):
    """(EventStream, sensor size or None) of the lines of an event file,
    held to its header's sensor, else to the `assumed` one.

    One bulk pass: numpy reads every record in one call, skipping comments
    and blank lines itself, and the columns are checked. Only a rejected
    file has its lines numbered, to name the earliest bad one.
    """
    header = _sensor_size(lines)
    try:
        columns = _records(lines)
    except ValueError:
        columns = None
    if columns is None or _first_rejection(columns, header, assumed) is not None:
        _reject(lines, columns, header, assumed)
    return _stream(columns), header or assumed


def _stream(columns):
    """The `EventStream` of accepted (t, x, y, p) record columns, p on disk."""
    t, x, y, p = columns
    return EventStream(t, x, y, np.where(p == 1, 1, -1))


_CHUNK = 1 << 16  # events built from one slice of the columns


def events_from_columns(t, x, y, p):
    """The `Event` list of equal-length t, x, y and p (+/-1) arrays, with
    Python numbers in every field."""
    # Events hold only numbers and form no reference cycles, so a garbage
    # collection while they are built scans every one of them and frees
    # nothing; for a million events that was three quarters of the build time.
    collecting = gc.isenabled()
    gc.disable()
    try:
        events = []
        for start in range(0, len(t), _CHUNK):
            columns = (c[start:start + _CHUNK].tolist() for c in (t, x, y, p))
            # tuple.__new__ builds each Event in C, skipping NamedTuple's
            # Python-level __new__
            events += map(tuple.__new__, repeat(Event), zip(*columns))
        return events
    finally:
        if collecting:
            gc.enable()


def _first_rejection(columns, header, assumed):
    """(index, error type, message) of the first record a check of its
    (t, x, y, p) columns rejects, or None. Events must lie on the `header`
    sensor, else on the `assumed` one (ConfigError unless it is a legal size)."""
    t, x, y, p = columns
    checks = [  # (rejected records, error type, message); on one record the first wins
        ((p < -1) | (p > 1), ParseError, "polarity must be 0/1 (or -1), got {p}"),
        (~np.isfinite(t), ParseError, "timestamp {t} is not finite"),
        (np.r_[False, t[1:] < t[:-1]], OrderingError, "timestamp {t} decreases below {t_prev}"),
    ]
    if header or assumed:
        h, w = header or assumed
        if header is None:  # a size the caller assumed, not one the file declared
            _check_sensor(h, w, ConfigError)
        checks.append((_off_sensor(x, y, h, w), ParseError,
                       f"event at (x, y) = ({{x}}, {{y}}) lies outside the {h}x{w} sensor"
                       + ("" if header is None else " of the header")))
    rejected = [(int(mask.argmax()), k) for k, (mask, _, _) in enumerate(checks) if mask.any()]
    if not rejected:
        return None
    i, k = min(rejected)
    _, error, message = checks[k]
    return i, error, message.format(t=t[i], t_prev=t[i - 1], x=x[i], y=y[i], p=p[i])


def _reject(lines, columns, header, assumed):
    """Raise ParseError for the earliest bad line of a rejected file, given
    the columns of its records (None if some line is not a record) and its
    `header` and `assumed` sensors."""
    # every line without its comment and surrounding whitespace
    text = list(map(str.strip, map(itemgetter(0), map(str.partition, lines, repeat("#")))))
    lineno = np.flatnonzero(np.fromiter(map(bool, text), bool, len(text))) + 1
    content = list(filter(None, text))
    bad = len(content)
    if columns is None:
        bad = _first_unreadable(content)
        columns = _records(content[:bad])
    rejection = _first_rejection(columns, header, assumed)
    if rejection is not None:
        i, error, message = rejection
        raise error(message, line=int(lineno[i]))
    fields = len(content[bad].split())
    raise ParseError(f"expected 4 fields 't x y p', got {fields}" if fields != 4 else
                     f"bad field value in {content[bad]!r}: t must be a decimal "
                     "number and x, y, p int64 integers", line=int(lineno[bad]))


def _records(lines):
    """The t, x, y, p columns of the records among `lines`, a list of lines
    or the path of a file (which numpy reads in chunks), skipping '#'
    comments and blank lines; ValueError if any other line is not a record
    or, in a file, not UTF-8. Contiguous copies: the records are freed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy warns when no line is a record
        records = np.loadtxt(lines, dtype=_RECORD, comments="#", ndmin=1, encoding="utf-8")
    return tuple(c.copy() for c in _record_columns(records))


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
    """Write a stream or a list of `Event`s in the on-disk format (p as
    {0, 1}, t in its shortest form that reads back bitwise) under a
    "# sensor_h sensor_w" size header."""
    t, x, y, p = EventStream.of(events).columns
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {sensor_h} {sensor_w}\n")
        fh.writelines(map("{} {} {} {}\n".format, t.tolist(), x.tolist(), y.tolist(),
                          (p > 0).astype(np.int64).tolist()))


def split_windows(events, sensor_h, sensor_w, duration=None, count=None):
    """Split a sorted stream (an `EventStream` or a list of `Event`s) into
    contiguous windows, whose events are slices of `events`.

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
    stream = EventStream.of(events)
    n = len(stream)
    if not n:
        return []
    if count is not None:
        t = stream.t
        return [EventWindow(stream._slice(a, a + count), t[a].item(),
                            t[min(a + count, n) - 1].item(), sensor_h, sensor_w)
                for a in range(0, n, count)]
    t_first, t_last = stream.t[0].item(), stream.t[-1].item()
    k = _window_of(t_first, duration)
    first = k + (k * duration == t_first)  # t_first on edge k * d opens window k + 1
    last = max(first, _window_of(t_last, duration))
    if not last - first < MAX_SCENE_STEPS:  # also an infinite t / duration
        raise ConfigError(f"window duration {duration} s cuts the stream's span, {t_first} "
                          f"to {t_last} s, into more than {MAX_SCENE_STEPS} windows")
    return _duration_windows(stream, duration, int(first), int(last), sensor_h, sensor_w)


def _window_of(t, d):
    """The k, a float, with (k - 1) * d < t <= k * d for the edges k * d."""
    k = -(-t // d)  # ceil, inf if too large; the quotient may round across an edge
    return k + (k * d < t) - ((k - 1) * d >= t)


def _duration_windows(events, d, first, last, sensor_h, sensor_w):
    """Windows `first` to `last` of a sorted stream, by the module's rule:
    one search of the t column finds every right edge."""
    stream = EventStream.of(events)
    edges = [k * d for k in range(first - 1, last + 1)]
    t = stream.t
    ends = np.searchsorted(t, edges, side="right")
    ends[0] = np.searchsorted(t, edges[0], side="left")  # the closed left edge
    ends = ends.tolist()
    return [EventWindow(stream._slice(a, b), t0, t1, sensor_h, sensor_w)
            for a, b, t0, t1 in zip(ends, ends[1:], edges, edges[1:])]


def check_bin_count(n_bins, h, w):
    """Refuse a bin count no h x w voxel grid can have."""
    if n_bins < 1:
        raise ConfigError(f"bin count must be >= 1, got {n_bins}")
    if n_bins * h * w * 8 > np.iinfo(np.intp).max:  # float64 bytes numpy cannot address
        raise ConfigError(f"bin count {n_bins} is too large for a {h}x{w} grid")


def encode_voxel_grid(window, n_bins):
    """Continuous voxel grid: each event deposits its polarity with a
    triangular kernel onto the two bins around its normalized timestamp
    t* = (B-1) (t - t0) / (t1 - t0). One bincount deposits all the left
    shares, then all the right ones, each in event order.
    """
    h, w = window.sensor_h, window.sensor_w
    check_bin_count(n_bins, h, w)
    t, x, y, p = window.columns
    n = len(t)
    outside = _off_sensor(x, y, h, w)
    if outside.any():
        i = int(outside.argmax())
        raise ParseError(f"event {i} at (x, y) = ({x[i]}, {y[i]}) lies outside "
                         f"the {h}x{w} sensor")
    x, y = x.astype(np.intp), y.astype(np.intp)

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
    """Standardize nonzero entries to mean 0 / std 1 in a float64 copy; zeros stay zero.

    Degenerate case (std 0, e.g. a single nonzero entry) zeroes those
    entries rather than dividing by zero.
    """
    data = grid.data.astype(np.float64, order="C")
    # one flat index set for the gather and the write (boolean masks cost ~30x)
    nonzero = np.flatnonzero(data != 0)
    if nonzero.size:
        vals = data.take(nonzero)
        std = vals.std()
        data.put(nonzero, (vals - vals.mean()) / std if std > 0 else 0.0)
    return VoxelGrid(data, grid.t0, grid.t1)


def slice_temporal_bins(grid):
    """Ordered list of the B single-channel H x W planes, as read-only
    views of the grid."""
    planes = grid.data.view()
    planes.flags.writeable = False
    return list(planes)


def window_bins(window, n_bins):
    """A window's network input, the one rule training and inference share:
    the `n_bins` planes of its voxel grid, nonzero-normalized, in time order."""
    return slice_temporal_bins(normalize_nonzero(encode_voxel_grid(window, n_bins)))
