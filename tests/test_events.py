import numpy as np
import pytest

from evrecon.errors import ConfigError, OrderingError, ParseError
from evrecon.events import (Event, EventWindow, encode_voxel_grid, load_events,
                            normalize_nonzero, parse_event_stream, save_events,
                            slice_temporal_bins, split_windows)


def make_events(ts, x=0, y=0, p=1):
    return [Event(t=t, x=x, y=y, p=p) for t in ts]


class TestParsing:
    def test_basic_lines(self):
        events = parse_event_stream(["0.1 3 4 1", "0.2 5 6 0"])
        assert events[0] == Event(t=0.1, x=3, y=4, p=1)
        assert events[1].p == -1  # 0 polarity maps to -1

    def test_skips_blank_and_comment_lines(self):
        events = parse_event_stream(["# header", "", "0.5 1 2 1", "   "])
        assert len(events) == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as exc:
            parse_event_stream(["0.1 1 2 1", "bogus line here"])
        assert exc.value.line == 2

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_event_stream(["0.1 1 2"])

    def test_bad_polarity(self):
        with pytest.raises(ParseError):
            parse_event_stream(["0.1 1 2 7"])

    def test_out_of_order_timestamps(self):
        with pytest.raises(OrderingError):
            parse_event_stream(["0.2 1 1 1", "0.1 1 1 1"])

    def test_equal_timestamps_allowed(self):
        events = parse_event_stream(["0.2 1 1 1", "0.2 2 2 0"])
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
        # events spanning exactly 0.2 s with 0.1 s windows: last event lands
        # on the closed right edge of window 2, no third window appears
        events = make_events([0.0, 0.1, 0.2])
        windows = split_windows(events, 4, 4, duration=0.1)
        assert len(windows) == 2
        assert len(windows[-1].events) == 2  # t=0.1 exclusive-left, 0.2 inclusive

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

    def test_slice_temporal_bins(self):
        w = EventWindow(make_events([0.1]), 0.0, 1.0, 3, 3)
        grid = encode_voxel_grid(w, 4)
        planes = slice_temporal_bins(grid)
        assert len(planes) == 4 and planes[0].shape == (3, 3)


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
