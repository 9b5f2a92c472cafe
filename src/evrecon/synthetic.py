"""Miniature event simulator: translating textures trigger threshold
crossings in log intensity, yielding an event stream plus per-step
ground-truth frames and flow."""

from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .errors import ConfigError
from .events import Event

LOG_EPS = 1e-3


@dataclass
class SyntheticScene:
    """A grayscale texture translated by an integer trajectory (wrap-around).

    `trajectory[s]` is the (dy, dx) shift applied between frames s and s+1;
    its length sets the number of simulated steps. `contrast` is the log-
    intensity threshold that triggers one event per crossing.
    """

    texture: np.ndarray
    trajectory: list
    contrast: float = 0.15
    dt: float = 0.01

    def __post_init__(self):
        self.texture = np.asarray(self.texture, dtype=np.float64)
        if self.contrast <= 0:
            raise ConfigError(f"contrast threshold must be > 0, got {self.contrast}")
        if self.dt <= 0:
            raise ConfigError(f"step duration must be > 0, got {self.dt}")

    @property
    def steps(self):
        return len(self.trajectory) + 1


def random_scene(height, width, steps, rng, contrast=0.15, max_shift=1,
                 smooth=2):
    """Smooth random texture with a random-walk integer trajectory."""
    tex = rng.random((height, width))
    for _ in range(smooth):  # box-blur with wrap keeps the texture tileable
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
    step. Returns (events sorted by time, frames, flows).
    """
    frames, flows = scene_frames(scene)
    c = scene.contrast
    ref = np.log(frames[0] + LOG_EPS)
    records = []  # (t, x, y, p)
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
                records.append((t_prev + frac * scene.dt, int(x), int(y), sign))
        ref += np.sign(delta) * n_cross * c
    records.sort(key=lambda r: r[0])
    events = list(starmap(Event, records))
    return events, frames, flows
