"""Seeded synthetic test corpus for the benchmark (numpy only).

Every image is 512x512, 8-bit, and made from one recipe per name. The seed
draws positions, phases, orientations and noise; the scales that set how
many atoms an image needs (periods, frequency ranges, noise levels) are
fixed, or drawn many times per image, so every seed gives an image of the
same kind and nearly the same cost. The recipes are not tuned to results:
change them only in a change that re-baselines the benchmark.
"""

from __future__ import annotations

import numpy as np

SIZE = 512

# Why each image is in the corpus; the order is the order of the workloads.
WHY = {
    "mixed": "sinusoid, ramp and 4-pixel checker plus N(0, 6) noise: the profiled paper "
    "regime, about 57 atoms per 16x16 block at 40 dB, and most of the encode time",
    "edges": "piecewise-constant shapes with slightly blurred step edges: the localized "
    "spline atoms are expected to beat the cosines here",
    "texture": "oriented gratings, one per 128x128 tile: high-frequency content that "
    "separable atoms fit poorly off-axis, the upper middle of the atoms-per-block range",
    "gradients": "smooth ramps and wide bumps with mild noise: the low end of the "
    "atoms-per-block range, where per-block fixed cost dominates",
}
NAMES = tuple(WHY)


def _coords() -> tuple[np.ndarray, np.ndarray]:
    y, x = np.mgrid[0:SIZE, 0:SIZE].astype(np.float64)
    return y / SIZE, x / SIZE


def _mixed(rng: np.random.Generator) -> np.ndarray:
    y, x = np.mgrid[0:SIZE, 0:SIZE].astype(np.float64)
    phase = rng.uniform(0.0, 2 * np.pi, size=2)
    vals = (
        96.0
        + 48.0 * np.sin(2 * np.pi * x / 17.0 + phase[0]) * np.cos(2 * np.pi * y / 23.0 + phase[1])
        + 64.0 * (x + y) / (2 * SIZE)
        + 16.0 * ((x.astype(int) // 4 + y.astype(int) // 4) % 2)
    )
    return vals + rng.normal(0.0, 6.0, vals.shape)


def _edges(rng: np.random.Generator) -> np.ndarray:
    y, x = _coords()
    vals = 110.0 + rng.uniform(-30.0, 30.0) * x + rng.uniform(-30.0, 30.0) * y
    for _ in range(14):
        y0, x0 = rng.uniform(0.0, 0.9, size=2)
        h, w = rng.uniform(0.05, 0.35, size=2)
        vals[(y >= y0) & (y < y0 + h) & (x >= x0) & (x < x0 + w)] = rng.uniform(30.0, 225.0)
    for _ in range(14):
        cy, cx = rng.uniform(0.0, 1.0, size=2)
        r = rng.uniform(0.03, 0.15)
        vals[(y - cy) ** 2 + (x - cx) ** 2 < r * r] = rng.uniform(30.0, 225.0)
    # 3x3 box blur (edge-replicated): a camera never records a perfect step.
    padded = np.pad(vals, 1, mode="edge")
    vals = sum(padded[dy : dy + SIZE, dx : dx + SIZE] for dy in range(3) for dx in range(3)) / 9.0
    return vals + rng.normal(0.0, 2.0, vals.shape)


def _texture(rng: np.random.Generator) -> np.ndarray:
    # 4x4 tiles of one grating each: sixteen independent draws of frequency
    # and orientation keep the image's total cost steady across seeds. Tile
    # edges fall on block edges for every block size the benchmark uses.
    tile = SIZE // 4
    y, x = np.mgrid[0:tile, 0:tile].astype(np.float64)
    vals = np.empty((SIZE, SIZE))
    for ty in range(4):
        for tx in range(4):
            freq = rng.uniform(0.04, 0.14)  # cycles per pixel
            angle = rng.uniform(0.0, np.pi)
            wave = np.cos(2 * np.pi * freq * (x * np.cos(angle) + y * np.sin(angle)) + rng.uniform(0, 2 * np.pi))
            vals[ty * tile : (ty + 1) * tile, tx * tile : (tx + 1) * tile] = 128.0 + 32.0 * wave
    return vals + rng.normal(0.0, 2.0, vals.shape)


def _gradients(rng: np.random.Generator) -> np.ndarray:
    y, x = _coords()
    vals = 128.0 + rng.uniform(-60.0, 60.0) * (x - 0.5) + rng.uniform(-60.0, 60.0) * (y - 0.5)
    for _ in range(4):
        cy, cx = rng.uniform(0.0, 1.0, size=2)
        width = rng.uniform(0.1, 0.3)
        vals += rng.uniform(-50.0, 50.0) * np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / (2 * width**2))
    fy, fx = rng.uniform(0.5, 2.0, size=2)
    vals += 20.0 * np.cos(2 * np.pi * (fx * x + fy * y) + rng.uniform(0.0, 2 * np.pi))
    return vals + rng.normal(0.0, 2.0, vals.shape)


_RECIPES = {"mixed": _mixed, "edges": _edges, "texture": _texture, "gradients": _gradients}


def make_image(name: str, seed: int) -> np.ndarray:
    """The ``name`` image for ``seed`` as a 512x512 uint8 array.

    Each image draws from its own stream, so one image does not depend on
    which others are made.
    """
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return np.clip(np.rint(_RECIPES[name](rng)), 0, 255).astype(np.uint8)
