import gc
import math
import tracemalloc
import weakref
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrecon import events as events_module
from evrecon.errors import ConfigError, OrderingError, ParseError
from evrecon.events import (MAX_SCENE_STEPS, Event, EventStream, EventWindow, VoxelGrid,
                            encode_voxel_grid, load_events, normalize_nonzero,
                            parse_event_stream, save_events, slice_temporal_bins,
                            split_windows, window_bins)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def make_events(ts, x=0, y=0, p=1):
    return [Event(t=t, x=x, y=y, p=p) for t in ts]


def oracle_parse_event_stream(stream):
    """The per-line parser the bulk pass replaced, kept as its reference.

    It has no header, finiteness or int64 checks, so on every stream the
    bulk parser accepts the two must agree.
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


def oracle_bulk_parse(lines):
    """The bulk parser that stripped and numbered every line before one
    numpy read, kept as the reference for the one that lets numpy skip
    comments and numbers lines only on error. Returns (events, sensor)."""
    sensor = events_module._sensor_size(lines)
    text = [line.partition("#")[0].strip() for line in lines]
    lineno = np.flatnonzero([bool(line) for line in text]) + 1
    content = [line for line in text if line]

    def records(rows):
        if not rows:
            return np.zeros(0, events_module._RECORD)
        return np.loadtxt(rows, dtype=events_module._RECORD, comments=None, ndmin=1)

    try:
        rec, bad = records(content), len(content)
    except ValueError:
        bad = events_module._first_unreadable(content)
        rec = records(content[:bad])
    t, x, y, p = (rec[name] for name in events_module._RECORD.names)
    checks = [
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
    if rejected:
        i, k = min(rejected)
        _, error, message = checks[k]
        raise error(message.format(t=t[i], t_prev=t[i - 1], x=x[i], y=y[i], p=p[i]),
                    line=int(lineno[i]))
    if bad < len(content):
        fields = len(content[bad].split())
        raise ParseError(f"expected 4 fields 't x y p', got {fields}" if fields != 4 else
                         f"bad field value in {content[bad]!r}: t must be a decimal "
                         "number and x, y, p int64 integers", line=int(lineno[bad]))
    return [Event(*row) for row in zip(t.tolist(), x.tolist(), y.tolist(),
                                      np.where(p == 1, 1, -1).tolist())], sensor


def oracle_duration_windows(events, sensor_h, sensor_w, duration):
    """The duration rule of `split_windows` as a per-event loop: window k
    spans [(k - 1) * d, k * d], edges computed as k * d; the cut opens on the
    window whose [left, right) span holds the first event, and each event
    goes to the first window whose right edge it does not pass."""
    k = math.floor(events[0].t / duration) + 1
    while (k - 1) * duration > events[0].t:  # the quotient rounded across an edge
        k -= 1
    while k * duration <= events[0].t:
        k += 1
    windows = [EventWindow([], (k - 1) * duration, k * duration, sensor_h, sensor_w)]
    for ev in events:
        while ev.t > windows[-1].t1:
            k += 1
            windows.append(EventWindow([], (k - 1) * duration, k * duration,
                                       sensor_h, sensor_w))
        windows[-1].events.append(ev)
    return windows


def assert_tiles(events, windows, duration):
    """The windows hold every event once, in order, as slices of the
    stream; each is one duration long, holds (t0, t1] (the first [t0, t1])
    and ends where the next begins."""
    assert [ev for w in windows for ev in w.events] == events
    for i, w in enumerate(windows):
        assert w.t1 - w.t0 == pytest.approx(duration, rel=1e-6, abs=1e-6)
        assert all((w.t0 < ev.t or i == 0 and w.t0 == ev.t) and ev.t <= w.t1
                   for ev in w.events)
    assert all(a.t1 == b.t0 for a, b in zip(windows, windows[1:]))


def oracle_save_events(path, events, sensor_h, sensor_w):
    """The per-event writer `save_events` replaced, kept as its reference."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {sensor_h} {sensor_w}\n")
        for ev in events:
            fh.write(f"{ev.t} {ev.x} {ev.y} {1 if ev.p > 0 else 0}\n")


def oracle_fromiter_voxel_grid(window, n_bins):
    """The voxelizer that read a window's `Event`s in one `np.fromiter` pass
    before the one-bincount deposit, kept as the reference for the deposit
    from the stream's columns."""
    h, w = window.sensor_h, window.sensor_w
    n = len(window.events)
    t, x, y, p = np.fromiter(chain.from_iterable(window.events), np.float64,
                             4 * n).reshape(n, 4).T
    x, y = x.astype(np.intp), y.astype(np.intp)
    span = window.t1 - window.t0
    t_star = (n_bins - 1) * (t - window.t0) / span if span > 0 and n_bins > 1 else np.zeros(n)
    lo = np.floor(t_star)
    frac = t_star - lo
    lo = np.clip(lo, -2, n_bins).astype(np.intp)
    bins = np.concatenate([lo, lo + 1])
    weights = np.concatenate([p * (1.0 - frac), p * frac])
    ok = (bins >= 0) & (bins < n_bins)
    cells = bins[ok] * (h * w) + np.tile(y * w + x, 2)[ok]
    grid = np.bincount(cells, weights[ok], minlength=n_bins * h * w)
    return VoxelGrid(grid.astype(np.float64, copy=False).reshape(n_bins, h, w),
                     window.t0, window.t1)


@pytest.fixture
def no_event_objects(monkeypatch):
    """Make the builder of `Event` objects fail."""
    def refuse(*columns):
        raise AssertionError("Event objects were built")
    monkeypatch.setattr(events_module, "events_from_columns", refuse)


class TestParsing:
    def test_basic_lines(self):
        events = parse_event_stream("\n".join(["0.1 3 4 1", "0.2 5 6 0"]))
        assert events[0] == Event(t=0.1, x=3, y=4, p=1)
        assert events[1].p == -1  # 0 polarity maps to -1

    def test_skips_blank_and_comment_lines(self):
        events = parse_event_stream("\n".join(["# header", "", "0.5 1 2 1", "   "]))
        assert len(events) == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as exc:
            parse_event_stream("\n".join(["0.1 1 2 1", "bogus line here"]))
        assert exc.value.line == 2

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_event_stream("0.1 1 2")

    def test_bad_polarity(self):
        with pytest.raises(ParseError):
            parse_event_stream("0.1 1 2 7")

    def test_out_of_order_timestamps(self):
        with pytest.raises(OrderingError):
            parse_event_stream("\n".join(["0.2 1 1 1", "0.1 1 1 1"]))

    def test_equal_timestamps_allowed(self):
        events = parse_event_stream("\n".join(["0.2 1 1 1", "0.2 2 2 0"]))
        assert len(events) == 2

    def test_roundtrip(self, tmp_path):
        events = [Event(t=0.1, x=3, y=4, p=1), Event(t=0.25, x=0, y=9, p=-1)]
        path = tmp_path / "ev.txt"
        save_events(path, events, sensor_h=10, sensor_w=12)
        loaded, (h, w) = load_events(path)
        assert (h, w) == (10, 12)
        assert len(loaded) == 2
        assert loaded[0].x == 3 and loaded[1].p == -1
        assert loaded[1].t == pytest.approx(0.25, abs=1e-9)

    def test_timestamps_round_trip_bitwise(self, tmp_path):
        # 9 decimals moved the bins of a saved scene by up to 3e-7
        times = sorted([0.1 + 0.2, 1 / 3, 2.5e-7, 0.0104, 1.6e9 + 0.123456789, 1e-300, -0.7])
        path = tmp_path / "ev.txt"
        save_events(path, make_events(times), sensor_h=10, sensor_w=12)
        assert [ev.t for ev in load_events(path)[0]] == times


    def test_event_is_a_named_tuple(self):
        ev = Event(t=0.5, x=3, y=4, p=-1)
        assert ev == Event(0.5, 3, 4, -1) and hash(ev) == hash(Event(0.5, 3, 4, -1))
        assert ev != Event(t=0.5, x=3, y=4, p=1)
        assert repr(ev) == "Event(t=0.5, x=3, y=4, p=-1)"
        assert (ev.t, ev.x, ev.y, ev.p) == (0.5, 3, 4, -1)

    def test_events_from_columns_matches_the_namedtuple_constructor(self):
        # the build skips Event's Python-level __new__; the oracle is the
        # map(Event, *columns) it replaced
        text = "# 5 7\n0.1 3 4 1\n0.25 0 2 0\n0.25 6 4 1\n0.5 1 1 0\n"
        parsed = parse_event_stream(text)
        columns = [np.array([getattr(ev, name) for ev in parsed]) for name in Event._fields]
        events = events_module.events_from_columns(*columns)
        assert events == list(map(Event, *(c.tolist() for c in columns)))
        assert parsed == oracle_parse_event_stream(text) and len(events) == 4
        assert all(type(ev) is Event for ev in events + list(parsed))
        assert all(type(v) is f for ev in events for v, f in zip(ev, (float, int, int, int)))

    @pytest.mark.parametrize("text,line,error", [
        ("0.1 1 2 1\n# note\n\n0.2 1 2\n", 4, ParseError),             # field count
        ("0.1 1 2 1 5\n", 1, ParseError),
        ("0.1 1 2 1\n0.2 1.5 2 1\n", 2, ParseError),                   # bad int
        ("0.1 1 2 1\n\n0.2x 1 2 1\n", 3, ParseError),                  # bad float
        ("# c\n0.1 1 2 1\n0.2 1 2 3\n", 3, ParseError),                # polarity
        ("0.1 1 2 1\r\n\r\n0.2 1 2 1\r\nnan 1 2 1\r\n", 4, ParseError),  # non-finite
        ("0.3 1 2 1\n0.2 1 2 1 # late\n", 2, OrderingError),
        ("# 2 4\n0.1 3 1 1\n0.2 4 1 1\n", 3, ParseError),              # outside header
    ])
    def test_rejections_name_the_file_line(self, text, line, error):
        with pytest.raises(error) as exc:
            parse_event_stream(text)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: ")

    @pytest.mark.parametrize("text,line", [
        ("0.1 1 2 1\n0.2 1 2 9\n0.3 1 2\n", 2),     # bad polarity before a bad field count
        ("0.1 1 2\n0.2 1 2 9\n", 1),                # bad field count before a bad polarity
        ("0.5 1 2 1\n0.4 1 2 9\n", 2),              # polarity and order on one line
        ("0.5 1 2 1\n0.4 1 2 1\n0.6 1 2 9\n", 2),   # order before polarity
    ])
    def test_earliest_bad_line_is_reported(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_event_stream(text)
        assert exc.value.line == line
        with pytest.raises(ParseError) as ref:
            oracle_parse_event_stream(text)
        assert ref.value.line == line

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf", "Infinity", "1e400"])
    def test_non_finite_timestamp_rejected(self, t):
        # these parsed before, and split_windows then failed with a raw
        # ValueError or OverflowError naming no line
        with pytest.raises(ParseError, match=r"line 2: timestamp .* is not finite"):
            parse_event_stream(f"0.1 1 2 1\n{t} 1 2 1\n")

    @pytest.mark.parametrize("record", [
        "1_0 1 2 1", "0.1 1_0 2 1",           # digit separators
        "0.1 \u0661 2 1", "\u0661.5 1 2 1",    # non-ASCII digits
        "0.1 99999999999999999999 2 1",       # beyond int64
    ])
    def test_grammar_narrower_than_python_numbers(self, record):
        # Python's float()/int() accepted these; the file grammar does not
        oracle_parse_event_stream([record])
        with pytest.raises(ParseError) as exc:
            parse_event_stream("\n".join(["0.0 0 0 1", record]))
        assert exc.value.line == 2

    def test_header_bounds_events(self, tmp_path):
        path = tmp_path / "ev.txt"
        path.write_text("# 2 4\n0.1 3 1 1\n\n0.2 7 1 1\n")
        with pytest.raises(ParseError, match=r"ev.txt: line 4: event at \(x, y\) = "
                                             r"\(7, 1\) lies outside the 2x4 sensor") as exc:
            load_events(path)
        assert exc.value.line == 4
        for x, y in [(-1, 0), (0, -1), (0, 2), (4, 0)]:
            with pytest.raises(ParseError):
                parse_event_stream(f"# 2 4\n0.1 {x} {y} 1\n")
        events, sensor = load_events(self._write(tmp_path, "# 2 4\n0.1 3 1 0\n"))
        assert sensor == (2, 4) and events == [Event(t=0.1, x=3, y=1, p=-1)]

    def test_events_unchecked_without_header(self, tmp_path):
        events, sensor = load_events(self._write(tmp_path, "# a comment\n0.1 700 9 1\n"))
        assert sensor is None and events[0].x == 700

    @pytest.mark.parametrize("header", ["# 0 4", "# 2 0", "# -2 4"])
    def test_non_positive_header_rejected(self, tmp_path, header):
        with pytest.raises(ParseError, match=r"line 2: sensor size must be positive"):
            load_events(self._write(tmp_path, f"\n{header}\n0.1 0 0 1\n"))

    @pytest.mark.parametrize("header", ["# 99999999999 99999999999", "# 65536 4", "# 4 65536"])
    def test_oversized_header_rejected(self, tmp_path, header):
        # such a header loaded, and voxelizing then died in np.zeros with a
        # raw ValueError; 65535 is the largest side a 16-bit address names
        with pytest.raises(ParseError,
                           match=r"events.txt: line 2: sensor side must be at most 65535"):
            load_events(self._write(tmp_path, f"\n{header}\n0.1 0 0 1\n"))
        _, sensor = load_events(self._write(tmp_path, "# 65535 65535\n0.1 0 0 1\n"))
        assert sensor == (65535, 65535)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "ev.txt"
        path.write_bytes(b"# 2 4\r\n0.1 1 1 1\r\n0.2 1 \xff 1\r\n")
        with pytest.raises(ParseError, match=r"ev.txt: line 3: not UTF-8") as exc:
            load_events(path)
        assert exc.value.line == 3
        with pytest.raises(ParseError) as exc:
            parse_event_stream(b"\n".join([b"0.1 1 1 1", b"0.2 \xc3 1 1"]))
        assert exc.value.line == 2

    def test_file_line_numbers_count_every_line(self, tmp_path):
        # CRLF endings, blank lines, comments, tabs: line 6 is the bad record
        text = "# 4 4\r\n\r\n0.1\t1 2 1 # ok\r\n   \r\n# note\r\n0.05 1 2 1\r\n"
        with pytest.raises(OrderingError) as exc:
            load_events(self._write(tmp_path, text))
        assert exc.value.line == 6

    def test_generated_stream_equals_oracle(self, tmp_path):
        # the benchmark's ingest format, at a size the per-line oracle reads quickly
        rng = np.random.default_rng(1)
        n = 20_000
        t = np.sort(rng.random(n))
        x, y, p = rng.integers(0, 240, n), rng.integers(0, 180, n), rng.integers(0, 2, n)
        path = tmp_path / "ingest.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# 180 240\n")
            fh.writelines(map("{:.9f} {} {} {}\n".format,
                              t.tolist(), x.tolist(), y.tolist(), p.tolist()))
        events, sensor = load_events(path)
        assert sensor == (180, 240)
        expected = oracle_parse_event_stream(path.read_text())
        assert events == expected
        assert all(type(a.t) is float and type(a.x) is int and type(a.p) is int
                   for a in events[:100])

    @staticmethod
    def _write(tmp_path, text):
        path = tmp_path / "events.txt"
        path.write_bytes(text.encode("utf-8"))
        return path


@st.composite
def event_files(draw):
    """Text in the save_events format, with comments, blank lines, tabs,
    CRLF endings and an optional header that bounds the events."""
    n = draw(st.integers(0, 25))
    ts = sorted(draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n)))
    lines = []
    if n and draw(st.booleans()):
        lines.append(f"# {draw(st.integers(10, 20))} {draw(st.integers(10, 20))}")
    for t in ts:
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        fields = [f"{t:.9f}", str(draw(st.integers(0, 9))), str(draw(st.integers(0, 9))),
                  str(draw(st.sampled_from([0, 1])))]
        line = draw(st.sampled_from(["", " ", "\t"])) + sep.join(fields)
        line += draw(st.sampled_from(["", " ", "  # note", "#"]))
        lines.append(line)
        lines.extend(draw(st.lists(st.sampled_from(["", "   ", "# a comment", "\t#"]),
                                   max_size=2)))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


SMALL_FILE = (b"# 6 8\n# a comment\n0.100000000 1 2 1\n\n0.200000000\t5 3 0\r\n"
              b"0.250000000 7 5 1 # x\n0.300000000 0 0 0\n")


@st.composite
def mixed_lines(draw):
    """Lines mixing records, '#' comments, blank and whitespace-only lines,
    non-ASCII whitespace, NUL, bad fields, bad polarities and decreasing
    timestamps, with an optional "# H W" header."""
    space = st.sampled_from([" ", "\t", "\xa0", "\x1f", "\u3000", "\x0b"])
    lines = []
    if draw(st.booleans()):
        lines.append(f"# {draw(st.integers(1, 14))} {draw(st.integers(8, 14))}")
    t = 0.0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["record"] * 6 + ["comment", "blank", "space", "nul",
                                                      "field", "polarity", "decrease"]))
        t += draw(st.sampled_from([0.0, 0.25, 1.5]))
        fields = [f"{t:.9f}", str(draw(st.integers(0, 12))), str(draw(st.integers(0, 12))),
                  str(draw(st.sampled_from([0, 1])))]
        if kind == "comment":
            fields = ["#", draw(st.sampled_from(["note", "1 2", "0.1 1 2 1"]))]
        elif kind == "blank":
            fields = []
        elif kind == "space":
            fields = [draw(space) * draw(st.integers(1, 3))]
        elif kind == "nul":
            fields.insert(draw(st.integers(0, 4)), "\x00")
        elif kind == "field":
            index = draw(st.integers(0, 3))
            fields[index] = draw(st.sampled_from(["", "x", "1.5", "1e", "0x1", "--1"]))
        elif kind == "polarity":
            fields[3] = draw(st.sampled_from(["2", "-2", "7"]))
        elif kind == "decrease":
            fields[0] = f"{t - 1.0:.9f}"
        line = draw(space).join(fields)
        if draw(st.booleans()):
            line = draw(space) + line + draw(st.sampled_from(["", " # tail", "#", "\xa0"]))
        lines.append(line)
    return lines


def parse_outcome(parse, lines):
    """(events, sensor) of a parse, or (error type, message, line) of its rejection."""
    try:
        return parse(lines)
    except ParseError as exc:
        return type(exc), str(exc), exc.line


class TestParsingProperties:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(mixed_lines())
    def test_mixed_lines_equal_bulk_oracle(self, lines):
        assert parse_outcome(events_module._parse, lines) == \
            parse_outcome(oracle_bulk_parse, lines)

    @PROPERTY
    @given(event_files())
    def test_valid_streams_equal_oracle(self, text):
        events = parse_event_stream(text)
        assert events == oracle_parse_event_stream(text)
        assert parse_event_stream(text.encode("utf-8")) == events

    @pytest.fixture(scope="class")
    def damaged_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("damaged") / "events.txt"

    @PROPERTY
    @given(st.one_of(
        st.integers(0, len(SMALL_FILE)).map(lambda k: SMALL_FILE[:k]),
        st.tuples(st.integers(0, len(SMALL_FILE) - 1), st.integers(0, 255)).map(
            lambda kv: SMALL_FILE[:kv[0]] + bytes([kv[1]]) + SMALL_FILE[kv[0] + 1:])))
    def test_damaged_file_loads_or_raises_parse_error(self, damaged_path, data):
        damaged_path.write_bytes(data)
        try:
            events, _ = load_events(damaged_path)
        except ParseError:
            return
        # whatever the bulk parser accepts, the per-line oracle read the same way
        assert events == oracle_parse_event_stream(data)


class TestEventStream:
    def test_reads_as_a_cached_sequence_of_events(self):
        stream = parse_event_stream("0.1 3 4 1\n0.25 0 9 0\n")
        assert len(stream) == 2 and stream.t.dtype == np.float64
        assert [c.tolist() for c in stream.columns] == [[0.1, 0.25], [3, 0], [4, 9], [1, -1]]
        assert stream == [Event(0.1, 3, 4, 1), Event(0.25, 0, 9, -1)]
        assert stream[0] is stream[0] and list(stream)[1] is stream[1]
        assert stream[:1] == [Event(0.1, 3, 4, 1)] and stream != stream[:1]

    def test_a_list_is_its_own_view(self):
        events = make_events([0.1, 0.2])
        stream = EventStream.of(events)
        assert EventStream.of(stream) is stream
        assert stream[0] is events[0] and stream.t.tolist() == [0.1, 0.2]

    def test_saved_bytes_equal_the_per_event_writer(self, tmp_path, no_event_objects):
        times = [-0.7, 1e-300, 2.5e-7, 0.0104, 0.1 + 0.2, 1 / 3, 1.6e9 + 0.123456789]
        text = "".join(f"{t!r} {i} {2 * i} {i % 2}\n" for i, t in enumerate(times))
        stream = parse_event_stream(text)
        save_events(tmp_path / "got.txt", stream, 20, 30)
        events = [Event(t, i, 2 * i, 1 if i % 2 else -1) for i, t in enumerate(times)]
        save_events(tmp_path / "list.txt", events, 20, 30)
        oracle_save_events(tmp_path / "want.txt", events, 20, 30)
        want = (tmp_path / "want.txt").read_bytes()
        assert (tmp_path / "got.txt").read_bytes() == want
        assert (tmp_path / "list.txt").read_bytes() == want

    def test_out_of_sensor_refusal_builds_no_events(self, no_event_objects):
        stream = parse_event_stream("0.1 3 1 1\n0.2 0 0 0\n0.3 700 9 1\n")
        (window,) = split_windows(stream, 2, 4, duration=1.0)
        with pytest.raises(ParseError, match=r"^event 2 at \(x, y\) = \(700, 9\) lies outside "
                                             r"the 2x4 sensor$"):
            encode_voxel_grid(window, 2)

    def test_a_window_frees_its_stream_once_it_has_its_events(self):
        n = 100_000
        rng = np.random.default_rng(0)
        t = np.sort(rng.random(n))
        stream = EventStream(t, rng.integers(0, 9, n), rng.integers(0, 9, n),
                             rng.choice([-1, 1], n))
        windows = split_windows(stream, 9, 9, duration=0.1)
        window = windows[3]
        grid = encode_voxel_grid(window, 3).data
        tracemalloc.start()
        try:
            events = window.events  # builds the stream's view, 100k Events
            assert events[0] is stream[len(windows[0].events) + len(windows[1].events)
                                       + len(windows[2].events)]
            with_view = tracemalloc.get_traced_memory()[0]
            refs = weakref.ref(stream), weakref.ref(t)
            del stream, windows, t
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(ref() is None for ref in refs)
        # the window keeps its ~10k events, a tenth of the view
        assert held < 0.2 * with_view, f"{held} of {with_view} bytes held"
        assert window.events is events and len(events) == window.columns[0].size
        assert encode_voxel_grid(window, 3).data.tobytes() == grid.tobytes()


@st.composite
def column_streams(draw):
    """(stream, duration): sorted columns whose timestamps include window
    edges computed as `split_windows` does, on sensors up to 9x9."""
    duration = draw(st.sampled_from([0.1, 0.01, 1 / 3, 0.25]) | st.floats(1e-3, 2.0))
    k0 = draw(st.integers(-50, 50))
    n_windows = draw(st.integers(1, 6))
    edges = [k * duration for k in range(k0, k0 + n_windows + 1)]
    times = st.sampled_from(edges) | st.floats(edges[0], edges[-1])
    ts = sorted(draw(st.lists(times, min_size=1, max_size=60)))
    n = len(ts)
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    xs = draw(st.lists(st.integers(0, w - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, h - 1), min_size=n, max_size=n))
    ps = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return (EventStream(np.array(ts), np.array(xs, np.int64), np.array(ys, np.int64),
                        np.array(ps, np.int64)), h, w, duration)


class TestStreamWindowsProperties:
    @PROPERTY
    @given(column_streams(), st.sampled_from([1, 2, 5]))
    def test_grids_equal_event_list_windows_bitwise(self, case, n_bins):
        stream, h, w, duration = case
        with pytest.MonkeyPatch.context() as patch:  # the stream path builds no Event
            patch.setattr(events_module, "events_from_columns", None)
            windows = split_windows(stream, h, w, duration=duration)
            grids = [encode_voxel_grid(win, n_bins).data for win in windows]
        t, x, y, p = (c.tolist() for c in stream.columns)
        for win, got in zip(windows, grids):
            # the window's events, built by hand from the columns' values
            inside = [i for i in range(len(t)) if win.t0 < t[i] <= win.t1
                      or win is windows[0] and t[i] == win.t0]
            hand = EventWindow([Event(t[i], x[i], y[i], p[i]) for i in inside],
                               win.t0, win.t1, h, w)
            assert got.tobytes() == encode_voxel_grid(hand, n_bins).data.tobytes()
            assert got.tobytes() == oracle_fromiter_voxel_grid(hand, n_bins).data.tobytes()
        assert sum(len(win.events) for win in windows) == len(stream)


class TestWindowingProperties:
    @PROPERTY
    @given(st.data())
    def test_duration_split_matches_loop(self, data):
        t_begin = data.draw(st.floats(-5.0, 5.0))
        duration = data.draw(st.sampled_from([0.1, 0.01, 0.3, 1 / 3, 0.25])
                             | st.floats(1e-3, 2.0))
        n = data.draw(st.integers(1, 6))
        # timestamps landing exactly on window edges, computed as split_windows does
        k0 = math.floor(t_begin / duration)
        edges = [k * duration for k in range(k0, k0 + n + 2)]
        ts = data.draw(st.lists(st.sampled_from(edges)
                                | st.floats(t_begin, t_begin + n * duration), max_size=30))
        events = make_events(sorted([t_begin] + ts))
        windows = split_windows(events, 4, 4, duration=duration)
        expected = oracle_duration_windows(events, 4, 4, duration)
        assert len(windows) == len(expected)
        for got, want in zip(windows, expected):
            assert (got.t0, got.t1) == (want.t0, want.t1)
            assert len(got.events) == len(want.events)
            assert all(a is b for a, b in zip(got.events, want.events))


class TestWindowing:
    def test_count_split(self):
        events = make_events([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        windows = split_windows(events, 4, 4, count=2)
        assert len(windows) == 3
        assert all(len(w.events) == 2 for w in windows)

    def test_duration_split_covers_all_events(self):
        events = make_events([0.0, 0.05, 0.12, 0.29])
        windows = split_windows(events, 4, 4, duration=0.1)
        assert sum(len(w.events) for w in windows) == len(events)
        assert len(windows) == 3

    def test_duration_exact_multiple_no_empty_tail(self):
        # events spanning exactly 0.2 s with 0.1 s windows: the last event
        # lands on the closed right edge of window 2, no third window
        # appears, and t = 0 opens window 1 on its closed left edge
        events = make_events([0.0, 0.1, 0.2])
        windows = split_windows(events, 4, 4, duration=0.1)
        assert [[ev.t for ev in w.events] for w in windows] == [[0.0, 0.1], [0.2]]
        assert [(w.t0, w.t1) for w in windows] == [(0.0, 0.1), (0.1, 0.2)]

    def test_duration_windows_are_anchored_at_zero(self):
        # the windows used to start at the first event: (0.05, 0.15] etc.
        events = make_events([0.05, 0.1, 0.12, 0.29])
        windows = split_windows(events, 4, 4, duration=0.1)
        assert [(w.t0, w.t1) for w in windows] == [(0.0, 0.1), (0.1, 0.2), (0.2, 3 * 0.1)]
        assert [len(w.events) for w in windows] == [2, 1, 1]

    def test_stream_far_from_zero_is_cut_by_its_span(self):
        # Unix-epoch timestamps: window indices near 1.6e11, but only
        # ceil(span / d)-order windows, which tile the stream
        t0 = 1.6e9 + 0.123
        events = make_events([t0 + 0.0037 * i for i in range(300)])
        windows = split_windows(events, 4, 4, duration=0.01)
        span = events[-1].t - events[0].t
        assert math.ceil(span / 0.01) <= len(windows) <= math.ceil(span / 0.01) + 1
        assert windows[0].t0 == round(windows[0].t0 / 0.01) * 0.01
        assert_tiles(events, windows, 0.01)

    def test_negative_timestamps_follow_the_same_rule(self):
        events = make_events([-0.3, -0.25, -0.2, -0.05, 0.0, 0.1])
        windows = split_windows(events, 4, 4, duration=0.1)
        assert [(w.t0, w.t1) for w in windows] == [
            (k * 0.1, (k + 1) * 0.1) for k in range(-3, 1)]
        # -0.3 opens window -2 on its closed left edge; -0.2, 0.0 and 0.1
        # close theirs on the right
        assert [[ev.t for ev in w.events] for w in windows] == [
            [-0.3, -0.25, -0.2], [], [-0.05, 0.0], [0.1]]
        assert_tiles(events, windows, 0.1)

    def test_window_count_is_bounded(self):
        # events at 0 and 1e6 s used to make 1e8 windows of 10 ms, one by one
        assert len(split_windows(make_events([0.0, MAX_SCENE_STEPS * 1.0]), 4, 4,
                                 duration=1.0)) == MAX_SCENE_STEPS
        for events, duration in ((make_events([0.0, 1e6]), 0.01),
                                 (make_events([0.0, MAX_SCENE_STEPS + 0.5]), 1.0),
                                 (make_events([1.0, 2.0]), 5e-324)):  # t / d is infinite
            with pytest.raises(ConfigError, match=rf"^window duration {duration} s cuts "
                                                  rf"the stream's span, {events[0].t} to "
                                                  rf"{events[-1].t} s, into more than "
                                                  rf"{MAX_SCENE_STEPS} windows$"):
                split_windows(events, 4, 4, duration=duration)

    def test_window_bounds(self):
        events = make_events([0.0, 0.25])
        (w,) = split_windows(events, 4, 4, duration=0.5)
        assert w.t0 == 0.0 and w.t1 == pytest.approx(0.5)

    def test_requires_exactly_one_mode(self):
        events = make_events([0.0, 0.1])
        with pytest.raises(ConfigError):
            split_windows(events, 4, 4)
        with pytest.raises(ConfigError):
            split_windows(events, 4, 4, duration=0.1, count=2)

    def test_empty_stream(self):
        assert split_windows([], 4, 4, duration=0.1) == []

    @pytest.mark.parametrize("duration", [0.0, -0.1, float("nan"), float("inf")])
    def test_duration_must_be_positive_and_finite(self, duration):
        for events in (make_events([0.0, 0.1]), []):
            with pytest.raises(ConfigError, match="positive and finite"):
                split_windows(events, 4, 4, duration=duration)

    def test_count_must_be_positive_even_for_an_empty_stream(self):
        for events in (make_events([0.0, 0.1]), []):
            with pytest.raises(ConfigError, match="window count must be >= 1"):
                split_windows(events, 4, 4, count=0)

    @pytest.mark.parametrize("h,w,message", [
        (0, 4, "sensor size must be positive, got 0 x 4"),
        (4, -1, "sensor size must be positive, got 4 x -1"),
        (65536, 4, "sensor side must be at most 65535, got 65536 x 4"),
    ])
    def test_sensor_size_follows_the_header_rule(self, h, w, message):
        for events in (make_events([0.0, 0.1]), []):
            with pytest.raises(ConfigError, match=f"^{message}$"):
                split_windows(events, h, w, count=1)
        assert len(split_windows(make_events([0.0]), 65535, 1, count=1)) == 1


def brute_force_voxel(window, n_bins):
    """Direct per-event evaluation of the triangular deposit."""
    grid = np.zeros((n_bins, window.sensor_h, window.sensor_w))
    span = window.t1 - window.t0
    for ev in window.events:
        if n_bins == 1 or span == 0:
            grid[0, ev.y, ev.x] += ev.p
            continue
        t_star = (n_bins - 1) * (ev.t - window.t0) / span
        for b in range(n_bins):
            grid[b, ev.y, ev.x] += ev.p * max(0.0, 1.0 - abs(b - t_star))
    return grid


def oracle_encode_voxel_grid(window, n_bins):
    """The voxelizer that read four per-field lists and deposited with two
    `np.add.at` passes, kept as the bitwise reference for the one-bincount
    deposit."""
    h, w = window.sensor_h, window.sensor_w
    grid = np.zeros((n_bins, h, w))
    if not window.events:
        return grid
    t = np.array([ev.t for ev in window.events])
    x = np.array([ev.x for ev in window.events], dtype=np.intp)
    y = np.array([ev.y for ev in window.events], dtype=np.intp)
    p = np.array([ev.p for ev in window.events], dtype=np.float64)
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
    return grid


@st.composite
def voxel_windows(draw):
    """(window, n_bins): sensors up to 64x64, empty windows, t1 == t0, and
    timestamps on bin edges, negative or far outside the window. Small
    sensors stack many deposits on one cell, where their order shows."""
    side = st.sampled_from([1, 2, 3]) | st.integers(1, 64)
    h, w = draw(side), draw(side)
    n_bins = draw(st.sampled_from([1, 2, 5]) | st.integers(1, 9))
    t0 = draw(st.sampled_from([0.0, -1.0, 0.25]) | st.floats(-100.0, 100.0))
    span = draw(st.sampled_from([0.0, 0.01, 1.0]) | st.floats(0.0, 10.0))
    t1 = t0 + span
    edges = [t0 + k * span / max(n_bins - 1, 1) for k in range(n_bins)]
    inside = st.integers(0, 2**52).map(lambda k: t0 + span * (k / 2**52))  # generic shares
    times = (st.sampled_from(edges + [t1, -0.0, 1e30, -1e30]) | inside | inside
             | st.floats(min(t0, -1.0), t1) | st.floats(-1e30, 1e30))
    n = draw(st.sampled_from([0, 1, 40]) | st.integers(0, 40))
    events = draw(st.lists(st.builds(Event, times, st.integers(0, w - 1),
                                     st.integers(0, h - 1), st.sampled_from([-1, 1])),
                           min_size=n, max_size=n))
    return EventWindow(events, t0, t1, h, w), n_bins


class TestVoxelGrid:
    def test_single_event_on_bin_center(self):
        # t exactly at bin 2 of 5 deposits full weight there only
        w = EventWindow(make_events([0.5], x=1, y=2), 0.0, 1.0, 4, 4)
        grid = encode_voxel_grid(w, 5)
        assert grid.data[2, 2, 1] == 1.0
        assert grid.data.sum() == 1.0

    def test_event_between_bins_splits_linearly(self):
        # t* = 4 * 0.3 = 1.2 -> weight 0.8 in bin 1, 0.2 in bin 2
        w = EventWindow(make_events([0.3], x=0, y=0), 0.0, 1.0, 2, 2)
        grid = encode_voxel_grid(w, 5)
        assert grid.data[1, 0, 0] == pytest.approx(0.8, abs=1e-12)
        assert grid.data[2, 0, 0] == pytest.approx(0.2, abs=1e-12)

    def test_negative_polarity_subtracts(self):
        w = EventWindow([Event(t=0.0, x=0, y=0, p=-1)], 0.0, 1.0, 2, 2)
        grid = encode_voxel_grid(w, 3)
        assert grid.data[0, 0, 0] == -1.0

    def test_mass_conservation(self):
        rng = np.random.default_rng(31)
        events = sorted((Event(t=float(t), x=int(rng.integers(0, 6)),
                               y=int(rng.integers(0, 5)),
                               p=int(rng.choice([-1, 1])))
                         for t in rng.uniform(0, 1, 50)), key=lambda e: e.t)
        w = EventWindow(events, 0.0, 1.0, 5, 6)
        grid = encode_voxel_grid(w, 5)
        signed_sum = sum(e.p for e in events)
        assert grid.data.sum() == pytest.approx(signed_sum, abs=1e-9)

    def test_single_bin_is_event_count_image(self):
        events = make_events([0.1, 0.2, 0.9], x=1, y=1)
        w = EventWindow(events, 0.0, 1.0, 3, 3)
        grid = encode_voxel_grid(w, 1)
        assert grid.data[0, 1, 1] == 3.0

    def test_degenerate_window_span(self):
        w = EventWindow(make_events([0.5, 0.5]), 0.5, 0.5, 2, 2)
        grid = encode_voxel_grid(w, 4)
        assert grid.data[0, 0, 0] == 2.0
        assert grid.data[1:].sum() == 0.0

    @pytest.mark.parametrize("n_bins", [1, 2, 5, 8])
    def test_matches_brute_force(self, n_bins):
        rng = np.random.default_rng(n_bins)
        events = sorted((Event(t=float(t), x=int(rng.integers(0, 7)),
                               y=int(rng.integers(0, 4)),
                               p=int(rng.choice([-1, 1])))
                         for t in rng.uniform(0.2, 0.8, 40)), key=lambda e: e.t)
        w = EventWindow(events, 0.2, 0.8, 4, 7)
        grid = encode_voxel_grid(w, n_bins)
        np.testing.assert_allclose(grid.data, brute_force_voxel(w, n_bins),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("x,y", [(5, 0), (-1, 0), (4, 1), (0, 2), (3, -1)])
    def test_out_of_range_coordinates_rejected(self, x, y):
        # a 2x4 sensor: without the check (5, 0) landed on pixel (1, 1)
        # and x=-1 wrapped round to the other end of the row
        events = make_events([0.1, 0.2], x=3, y=1) + [Event(t=0.3, x=x, y=y, p=1)]
        w = EventWindow(events, 0.0, 1.0, 2, 4)
        with pytest.raises(ParseError, match=rf"event 2 at \(x, y\) = \({x}, {y}\).*2x4"):
            encode_voxel_grid(w, 3)

    @pytest.mark.parametrize("far", [1e30, -1e30])
    def test_far_event_is_dropped_without_a_warning(self, far):
        # its t* overflowed the bin cast, and numpy warned on stderr
        near = make_events([0.2, 0.7])
        got = encode_voxel_grid(EventWindow(sorted(near + make_events([far])), 0.0, 1.0, 2, 2), 3)
        want = encode_voxel_grid(EventWindow(near, 0.0, 1.0, 2, 2), 3)
        assert got.data.tobytes() == want.data.tobytes()

    @PROPERTY
    @given(voxel_windows())
    def test_equals_two_pass_oracle_bitwise(self, case):
        window, n_bins = case
        got = encode_voxel_grid(window, n_bins).data
        with np.errstate(invalid="ignore"):  # far events overflow the oracle's bin cast
            want = oracle_encode_voxel_grid(window, n_bins)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    def test_slice_temporal_bins(self):
        w = EventWindow(make_events([0.1]), 0.0, 1.0, 3, 3)
        grid = encode_voxel_grid(w, 4)
        planes = slice_temporal_bins(grid)
        assert len(planes) == 4 and planes[0].shape == (3, 3)

    def test_window_bins_are_the_normalized_planes(self):
        # the network input of a window, read by training and inference alike
        rng = np.random.default_rng(32)
        events = sorted(make_events(rng.uniform(0, 1, 30).tolist(), x=2, y=1)
                        + make_events(rng.uniform(0, 1, 20).tolist(), x=0, y=2, p=-1))
        w = EventWindow(events, 0.0, 1.0, 3, 4)
        got = window_bins(w, 3)
        want = slice_temporal_bins(normalize_nonzero(encode_voxel_grid(w, 3)))
        assert len(got) == 3 and all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestNormalization:
    def test_zero_grid_stays_zero(self):
        from evrecon.events import VoxelGrid
        g = VoxelGrid(np.zeros((2, 3, 3)), 0.0, 1.0)
        out = normalize_nonzero(g)
        assert out.data.sum() == 0.0

    def test_nonzero_entries_standardized(self):
        from evrecon.events import VoxelGrid
        data = np.zeros((1, 4, 4))
        data[0, 0, :] = [1.0, 2.0, 3.0, 4.0]
        out = normalize_nonzero(VoxelGrid(data, 0.0, 1.0))
        nz = out.data[out.data != 0]
        assert nz.mean() == pytest.approx(0.0, abs=1e-12)
        assert nz.std() == pytest.approx(1.0, abs=1e-12)

    def test_zeros_untouched(self):
        from evrecon.events import VoxelGrid
        data = np.zeros((1, 3, 3))
        data[0, 1, 1] = 5.0
        data[0, 2, 2] = -5.0
        out = normalize_nonzero(VoxelGrid(data, 0.0, 1.0))
        assert out.data[0, 0, 0] == 0.0

    def test_constant_nonzero_values(self):
        from evrecon.events import VoxelGrid
        data = np.zeros((1, 2, 2))
        data[0, 0, 0] = data[0, 1, 1] = 2.0
        out = normalize_nonzero(VoxelGrid(data, 0.0, 1.0))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0, 0] == 0.0  # zero std -> zeroed, not NaN
