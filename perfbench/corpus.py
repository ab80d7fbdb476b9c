"""Seeded benchmark inputs: bars-and-stripes, a digits-shaped 784-pixel
corpus, and the l=500 starting model of the 784-d workloads.

Real MNIST is not bundled, so the 784-d workloads use a labeled corpus drawn
from the seed: ten classes, each a fixed set of blurred pen strokes on a
28x28 grid, shifted by up to two pixels and dimmed per example. Pixel
intensities are binarized with the package's own `binarize_stochastic`.
Every array here is a pure function of the seed.
"""

from __future__ import annotations

import numpy as np
from irbm.model import ModelParams, PenaltyConfig

SIDE = 28
N_CLASSES = 10


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _segment_distance(yy, xx, p0, p1):
    """Distance of every grid point to the segment p0-p1."""
    d = p1 - p0
    t = ((yy - p0[0]) * d[0] + (xx - p0[1]) * d[1]) / max(float(d @ d), 1e-9)
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(yy - (p0[0] + t * d[0]), xx - (p0[1] + t * d[1]))


def stroke_templates(seed: int) -> np.ndarray:
    """(N_CLASSES, SIDE, SIDE) intensities, two to four strokes per class."""
    rng = _rng(seed, 1)
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    out = np.zeros((N_CLASSES, SIDE, SIDE))
    for k in range(N_CLASSES):
        for _ in range(int(rng.integers(2, 5))):
            p0, p1 = rng.uniform(6.0, 22.0, (2, 2))
            out[k] = np.maximum(out[k], np.exp(-(_segment_distance(yy, xx, p0, p1) / 1.8) ** 2))
    return out


def digit_intensities(seed: int, n: int, tag: int) -> tuple[np.ndarray, np.ndarray]:
    """n labeled examples as (n, 784) intensities in [0, 1] plus labels.

    The class templates depend on the seed alone, so splits drawn with
    different tags share them.
    """
    templates = stroke_templates(seed)
    rng = _rng(seed, tag)
    labels = rng.integers(0, N_CLASSES, n)
    shifts = rng.integers(-2, 3, (n, 2))
    images = np.empty((n, SIDE * SIDE))
    for i in range(n):
        img = np.roll(templates[labels[i]], tuple(shifts[i]), axis=(0, 1))
        images[i] = img.ravel()
    images *= rng.uniform(0.8, 1.0, (n, 1))
    images = np.clip(images + rng.normal(0.0, 0.03, images.shape), 0.0, 1.0)
    return images, labels.astype(np.int32)


def starting_model(X: np.ndarray, seed: int, l: int, C: int, beta: float):
    """A seeded l-unit model shaped like a partly trained one.

    Filters are scaled data deviations plus noise. Hidden biases fall from
    +3 to -2 along the pool, so p(z | v) peaks well inside it: the cutoff
    posterior is informative, regrouping the first 0.7*l units matters, and
    draws at the pool edge (the growth signal) stay rare.
    """
    rng = _rng(seed, 2)
    mean = np.clip(X.mean(axis=0), 0.02, 0.98)
    rows = X[rng.integers(0, X.shape[0], l)] - mean
    W = 0.04 * rows + rng.normal(0.0, 0.01, (l, X.shape[1]))
    c = np.linspace(3.0, -2.0, l) - 0.04 * (rows * mean).sum(axis=1)
    U = rng.normal(0.0, 0.1, (l, C)) if C else None
    d = np.zeros(C) if C else None
    return ModelParams(
        W=W, b_v=np.log(mean / (1.0 - mean)), c=c, U=U, d=d,
        penalty=PenaltyConfig(beta=beta))
