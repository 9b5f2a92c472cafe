"""Miniature event simulator: translating textures trigger threshold
crossings in log intensity, yielding an event stream plus per-step
ground-truth frames and flow. `SceneConfig` is the checked JSON form of a
scene to draw (`simulate --config`), `SyntheticScene` that of a drawn
scene (`meta.json`)."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, bounded, check_fields, echo
from .events import MAX_SCENE_STEPS, MAX_SENSOR_SIDE, EventStream

LOG_EPS = 1e-3


@dataclass
class SyntheticScene:
    """A grayscale texture translated by an integer trajectory (wrap-around).

    `texture` is 2-D with values in [0, 1]. `trajectory[s]` is the (dy, dx)
    shift applied between frames s and s+1; its length, at least 1, sets
    the number of simulated steps. `contrast` is the log-intensity
    threshold that triggers one event per crossing. `meta.json` holds
    exactly these four fields, the texture as rows.
    """

    texture: np.ndarray
    trajectory: list
    contrast: float = bounded(above=0, default=0.15)
    dt: float = bounded(above=0, default=0.01)

    def __post_init__(self):
        try:
            texture = np.asarray(self.texture)
            numeric = texture.dtype.kind in "iuf"
        except ValueError:  # ragged rows
            numeric = False
        if not numeric:
            raise ConfigError("SyntheticScene.texture must be rows of numbers")
        if texture.ndim != 2 or texture.size == 0:
            raise ConfigError(f"SyntheticScene.texture must be 2-D and non-empty, "
                              f"got shape {texture.shape}")
        if not np.all((texture >= 0.0) & (texture <= 1.0)):
            raise ConfigError("SyntheticScene.texture values must lie in [0, 1]")
        self.texture = np.asarray(texture, dtype=np.float64)
        check_fields(self)
        if not 1 <= len(self.trajectory) < MAX_SCENE_STEPS:
            raise ConfigError(f"SyntheticScene.trajectory must hold 1 to {MAX_SCENE_STEPS - 1} "
                              f"[dy, dx] shifts, got {len(self.trajectory)}")
        _check_shifts("SyntheticScene", "trajectory", self.trajectory)
        self.trajectory = [tuple(shift) for shift in self.trajectory]

    @property
    def steps(self):
        return len(self.trajectory) + 1


def random_scene(height, width, steps, rng, contrast=0.15, max_shift=1):
    """Smooth random texture with a random-walk integer trajectory."""
    tex = rng.random((height, width))
    for _ in range(2):  # box-blur with wrap keeps the texture tileable
        tex = sum(np.roll(np.roll(tex, dy, 0), dx, 1)
                  for dy in (-1, 0, 1) for dx in (-1, 0, 1)) / 9.0
    lo, hi = tex.min(), tex.max()
    tex = (tex - lo) / (hi - lo) if hi > lo else np.full_like(tex, 0.5)
    traj = [(int(rng.integers(-max_shift, max_shift + 1)),
             int(rng.integers(-max_shift, max_shift + 1)))
            for _ in range(steps - 1)]
    return SyntheticScene(texture=tex, trajectory=traj, contrast=contrast)


def scene_frames(scene):
    """Ground-truth frames and flows; flows[s] maps frame s-1 onto frame s."""
    frames = [scene.texture.copy()]
    flows = [(0, 0)]
    for dy, dx in scene.trajectory:
        frames.append(np.roll(frames[-1], (dy, dx), axis=(0, 1)))
        flows.append((dy, dx))
    return frames, flows


def generate_events(scene):
    """Simulate the event stream of a scene.

    Per pixel, one event of polarity sign(delta) is emitted each time the
    accumulated log-intensity change since the pixel's last event crosses
    the contrast threshold; timestamps are interpolated linearly inside the
    step. Returns (an EventStream sorted by time, frames, flows).
    """
    frames, flows = scene_frames(scene)
    c = scene.contrast
    ref = np.log(frames[0] + LOG_EPS)
    t, x, y, p = [], [], [], []  # one column block per step
    for s in range(1, len(frames)):
        delta = np.log(frames[s] + LOG_EPS) - ref
        magnitude = np.abs(delta)
        # an event takes 8 bytes a column: refuse a count numpy cannot address
        if magnitude.sum() > c * (np.iinfo(np.intp).max // 8):
            raise ConfigError(f"SyntheticScene.contrast = {c!r} asks for more events at step {s} "
                              "than memory can hold")
        n_cross = np.floor(magnitude / c).astype(int)
        ys, xs = np.nonzero(n_cross)
        n = n_cross[ys, xs]
        d = np.repeat(delta[ys, xs], n)
        k = np.arange(1, d.size + 1) - np.repeat(np.cumsum(n) - n, n)  # 1..n per pixel
        t.append((s - 1) * scene.dt + (k * c) / np.abs(d) * scene.dt)
        x.append(np.repeat(xs, n))
        y.append(np.repeat(ys, n))
        p.append(np.where(d > 0, 1, -1))
        ref += np.sign(delta) * n_cross * c
    if not t:
        return EventStream.of([]), frames, flows
    order = np.argsort(np.concatenate(t), kind="stable")
    return EventStream(*(np.concatenate(col)[order] for col in (t, x, y, p))), frames, flows


def _check_shifts(owner, name, shifts):
    """ConfigError unless every entry of `shifts` is a [dy, dx] pair of
    integers no larger than a sensor side."""
    for shift in shifts:
        if not (isinstance(shift, (list, tuple)) and len(shift) == 2
                and all(isinstance(v, int) and not isinstance(v, bool)
                        and abs(v) <= MAX_SENSOR_SIDE for v in shift)):
            raise ConfigError(f"{owner}.{name} must hold [dy, dx] pairs of integers within "
                              f"+-{MAX_SENSOR_SIDE}, got {echo(shift)}")


@dataclass
class SceneConfig:
    """The `simulate --config` JSON: a random scene to draw (`random_scene`).

    The trajectory is a random walk of up to `max_shift` pixels per axis
    and step or, when `motion` [dy, dx] is given, that shift at every step.
    """

    height: int = bounded(1, MAX_SENSOR_SIDE, default=32)
    width: int = bounded(1, MAX_SENSOR_SIDE, default=32)
    steps: int = bounded(2, MAX_SCENE_STEPS, default=41)  # two frames make one shift
    contrast: float = bounded(above=0, default=0.15)
    max_shift: int = bounded(0, MAX_SENSOR_SIDE, default=1)
    motion: list = None

    def __post_init__(self):
        check_fields(self)
        if self.motion is not None:
            _check_shifts("SceneConfig", "motion", [self.motion])

    def scene(self, rng):
        scene = random_scene(self.height, self.width, self.steps, rng,
                             contrast=self.contrast, max_shift=self.max_shift)
        if self.motion is not None:
            scene.trajectory = [tuple(self.motion)] * (self.steps - 1)
        return scene
