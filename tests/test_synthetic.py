import numpy as np
import pytest

from evrecon.errors import ConfigError
from evrecon.events import Event
from evrecon.synthetic import (LOG_EPS, MAX_SCENE_STEPS, SceneConfig, SyntheticScene,
                               generate_events, random_scene, scene_frames)


def oracle_generate_events(scene):
    """The per-crossing loop `generate_events` replaced, kept as its oracle:
    one (t, x, y, p) tuple per threshold crossing, then a stable sort by t.
    Every field is a Python number, as in a parsed event file."""
    frames, flows = scene_frames(scene)
    c = scene.contrast
    ref = np.log(frames[0] + LOG_EPS)
    records = []
    for s in range(1, len(frames)):
        level = np.log(frames[s] + LOG_EPS)
        delta = level - ref
        n_cross = np.floor(np.abs(delta) / c).astype(int)
        ys, xs = np.nonzero(n_cross)
        t_prev = (s - 1) * scene.dt
        for y, x in zip(ys, xs):
            d = delta[y, x]
            sign = 1 if d > 0 else -1
            for k in range(1, n_cross[y, x] + 1):
                frac = (k * c) / abs(d)
                records.append((float(t_prev + frac * scene.dt), int(x), int(y), sign))
        ref += np.sign(delta) * n_cross * c
    records.sort(key=lambda r: r[0])
    return [Event(*r) for r in records], frames, flows


def static_scene(h=8, w=8, steps=4, **kw):
    tex = np.random.default_rng(91).random((h, w))
    return SyntheticScene(texture=tex, trajectory=[(0, 0)] * (steps - 1), **kw)


class TestScene:
    def test_random_scene_shapes(self):
        scene = random_scene(12, 10, 5, np.random.default_rng(92))
        assert scene.texture.shape == (12, 10)
        assert scene.steps == 5
        assert len(scene.trajectory) == 4

    def test_texture_normalized(self):
        scene = random_scene(16, 16, 3, np.random.default_rng(93))
        assert scene.texture.min() == 0.0 and scene.texture.max() == 1.0

    def test_invalid_contrast(self):
        with pytest.raises(ConfigError):
            SyntheticScene(texture=np.ones((4, 4)), trajectory=[(0, 0)], contrast=0.0)

    def test_invalid_dt(self):
        with pytest.raises(ConfigError):
            SyntheticScene(texture=np.ones((4, 4)), trajectory=[(0, 0)], dt=-1.0)

    @pytest.mark.parametrize("texture,trajectory,field", [
        pytest.param(np.full((4, 4), 1.5), [(0, 0)], "texture", id="texture-above-1"),
        pytest.param(np.ones(4), [(0, 0)], "texture", id="texture-1d"),
        pytest.param(np.ones((4, 4)), [], "trajectory", id="one-frame"),
        pytest.param(np.ones((4, 4)), [(0.5, 0)], "trajectory", id="fractional-shift"),
    ])
    def test_in_program_scenes_are_checked(self, texture, trajectory, field):
        # only meta.json scenes were checked; these ran before
        with pytest.raises(ConfigError, match=f"SyntheticScene.{field}"):
            SyntheticScene(texture=texture, trajectory=trajectory)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       pytest.param(10 ** 400, id="int-beyond-float")])
    def test_non_finite_contrast_and_dt(self, value):
        # a NaN contrast passed, then generate_events died in np.repeat; an
        # integer beyond the float range died there in an OverflowError
        for field in ("contrast", "dt"):
            with pytest.raises(ConfigError,
                               match=f"SyntheticScene.{field} must be finite"):
                SyntheticScene(texture=np.ones((4, 4)), trajectory=[(0, 0)], **{field: value})
        with pytest.raises(ConfigError, match="SyntheticScene.contrast"):
            random_scene(8, 8, 3, np.random.default_rng(0), contrast=value)

    def test_scene_length_is_bounded(self):
        # steps = 10**9 was accepted, and random_scene then drew its walk for
        # about 1.7 h before any allocation could fail
        with pytest.raises(ConfigError, match=rf"^SceneConfig\.steps must be at most "
                                              rf"{MAX_SCENE_STEPS}, got 1000000000$"):
            SceneConfig(steps=10**9)
        assert SceneConfig(steps=MAX_SCENE_STEPS).steps == MAX_SCENE_STEPS
        texture = np.ones((2, 2))
        SyntheticScene(texture=texture, trajectory=[(0, 0)] * (MAX_SCENE_STEPS - 1))
        with pytest.raises(ConfigError, match=r"^SyntheticScene\.trajectory must hold"):
            SyntheticScene(texture=texture, trajectory=[(0, 0)] * MAX_SCENE_STEPS)

    @pytest.mark.parametrize("contrast", [5e-324, 1e-300])
    def test_tiny_contrast_is_refused_by_event_count(self, contrast):
        # the crossing counts overflowed int64 and np.repeat raised a raw
        # ValueError ("repeats may not contain negative values")
        scene = SyntheticScene(texture=np.array([[0.0, 1.0]]), trajectory=[(0, 1)],
                               contrast=contrast)
        with pytest.raises(ConfigError, match=r"^SyntheticScene\.contrast = .* events at step 1"):
            generate_events(scene)


class TestFrames:
    def test_static_scene_constant_frames(self):
        frames, flows = scene_frames(static_scene())
        for f in frames[1:]:
            np.testing.assert_array_equal(f, frames[0])
        assert all(fl == (0, 0) for fl in flows)

    def test_shift_matches_roll(self):
        tex = np.random.default_rng(94).random((6, 6))
        scene = SyntheticScene(texture=tex, trajectory=[(1, 0), (0, -2)])
        frames, flows = scene_frames(scene)
        np.testing.assert_array_equal(frames[1], np.roll(tex, (1, 0), axis=(0, 1)))
        np.testing.assert_array_equal(frames[2],
                                      np.roll(tex, (1, -2), axis=(0, 1)))
        assert flows == [(0, 0), (1, 0), (0, -2)]

    def test_wraparound_preserves_content(self):
        scene = random_scene(8, 8, 4, np.random.default_rng(95), max_shift=3)
        frames, _ = scene_frames(scene)
        for f in frames:
            np.testing.assert_allclose(np.sort(f.ravel()),
                                       np.sort(frames[0].ravel()), atol=1e-15)


class TestEventGeneration:
    def test_static_scene_emits_nothing(self):
        events, _, _ = generate_events(static_scene())
        assert events == []
        firing, _, _ = generate_events(random_scene(4, 4, 3, np.random.default_rng(95)))
        assert [c.dtype for c in events.columns] == [c.dtype for c in firing.columns]

    def test_events_sorted_by_time(self):
        scene = random_scene(10, 10, 6, np.random.default_rng(96), contrast=0.1)
        events, _, _ = generate_events(scene)
        ts = [e.t for e in events]
        assert ts == sorted(ts)
        assert len(events) > 0

    def test_timestamps_within_span(self):
        scene = random_scene(10, 10, 5, np.random.default_rng(97), contrast=0.1)
        events, frames, _ = generate_events(scene)
        span = (len(frames) - 1) * scene.dt
        assert all(0.0 < e.t <= span for e in events)

    def test_coordinates_within_sensor(self):
        scene = random_scene(7, 9, 5, np.random.default_rng(98), contrast=0.1)
        events, _, _ = generate_events(scene)
        assert all(0 <= e.x < 9 and 0 <= e.y < 7 for e in events)

    def test_polarity_signs_only(self):
        scene = random_scene(10, 10, 5, np.random.default_rng(99), contrast=0.1)
        events, _, _ = generate_events(scene)
        assert set(e.p for e in events) <= {-1, 1}

    def test_event_count_tracks_log_change(self):
        # single shift step: per-pixel count is floor(|delta log| / c)
        c = 0.2
        tex = np.random.default_rng(102).random((4, 4))
        scene = SyntheticScene(texture=tex, trajectory=[(1, 0)], contrast=c)
        events, frames, _ = generate_events(scene)
        ref = np.log(frames[0] + LOG_EPS)
        level = np.log(frames[1] + LOG_EPS)
        expect = int(np.floor(np.abs(level - ref) / c).sum())
        assert len(events) == expect

    def test_brute_force_event_count_randomized(self):
        for seed in range(5):
            scene = random_scene(8, 8, 4, np.random.default_rng(seed), contrast=0.12)
            events, frames, _ = generate_events(scene)
            # reference accumulator over the whole run
            ref = np.log(frames[0] + LOG_EPS)
            total = 0
            for s in range(1, len(frames)):
                level = np.log(frames[s] + LOG_EPS)
                delta = level - ref
                n = np.floor(np.abs(delta) / scene.contrast).astype(int)
                total += int(n.sum())
                ref += np.sign(delta) * n * scene.contrast
            assert len(events) == total

    def test_lower_contrast_more_events(self):
        rng_tex = np.random.default_rng(100)
        tex = rng_tex.random((10, 10))
        traj = [(1, 1), (1, 0), (0, 1)]
        n_lo = len(generate_events(SyntheticScene(tex, traj, contrast=0.05))[0])
        n_hi = len(generate_events(SyntheticScene(tex, traj, contrast=0.3))[0])
        assert n_lo > n_hi

    def test_interpolated_timestamps_inside_step(self):
        scene = random_scene(8, 8, 3, np.random.default_rng(101), contrast=0.1)
        events, _, _ = generate_events(scene)
        for e in events:
            step = int(np.ceil(e.t / scene.dt - 1e-12))
            assert (step - 1) * scene.dt < e.t <= step * scene.dt + 1e-12


class TestGenerateEventsOracle:
    @pytest.mark.parametrize("scene", [
        pytest.param(random_scene(32, 32, 41, np.random.default_rng(3), contrast=0.1),
                     id="toy-32x32"),
        pytest.param(random_scene(24, 40, 6, np.random.default_rng(4), max_shift=3),
                     id="24x40-fast"),
        pytest.param(SyntheticScene(texture=np.linspace(0, 1, 48).reshape(6, 8) ** 3,
                                    trajectory=[(1, -2), (0, 1), (-3, 0)], contrast=0.05,
                                    dt=0.003), id="ramp-low-contrast"),
        pytest.param(SyntheticScene(texture=np.full((8, 8), 0.5), trajectory=[(1, 1)] * 3),
                     id="flat-no-events"),
    ])
    def test_same_events_values_types_and_order(self, scene):
        events, frames, flows = generate_events(scene)
        expected, exp_frames, exp_flows = oracle_generate_events(scene)
        assert len(events) == len(expected)
        assert events == expected
        assert [tuple(map(type, e)) for e in events] == [tuple(map(type, e)) for e in expected]
        assert all(a.t.hex() == b.t.hex() for a, b in zip(events, expected))  # bitwise times
        assert flows == exp_flows
        for f, g in zip(frames, exp_frames, strict=True):
            np.testing.assert_array_equal(f, g)

    def test_flat_texture_emits_nothing(self):
        scene = SyntheticScene(texture=np.full((8, 8), 0.5), trajectory=[(1, 1)] * 3)
        assert generate_events(scene)[0] == []
